"""Workload passes inside a worker, untraced for the end-to-end metrics and
traced for the per-layer ones."""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import metagame.cli as cli

import tracing as tr
from workloads import FINITE_SIZES, WORKLOADS, Workload


@dataclass
class Pass:
    wall_s: float
    output_bytes: int
    digests: dict[str, dict[str, str]]  # op label -> output file -> sha256
    errors: dict[str, list[str]]  # op label -> failures, empty when correct


def run_pass(workload: Workload, configs, out_root: Path) -> Pass:
    """Run the workload's commands once, then check and fingerprint outputs."""
    outs = [out_root / f"{i}-{op.label}" for i, op in enumerate(workload.ops)]
    argvs = [op.argv(configs, out) for op, out in zip(workload.ops, outs)]
    start = time.perf_counter()
    codes = [cli.run_command(argv) for argv in argvs]
    wall_s = time.perf_counter() - start

    errors, digests, size = {}, {}, 0
    for op, out, code in zip(workload.ops, outs, codes):
        errs = [] if code == cli.EXIT_OK else [f"exit code {code}"]
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        size += sum(p.stat().st_size for p in files)
        digests[op.label] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files
        }
        if code == cli.EXIT_OK:
            try:
                results = json.loads((out / "report.json").read_text())["results"]
                errs += op.check(results, out)
            except Exception as exc:  # malformed output fails the op, never the run
                errs.append(f"output check raised {exc!r}")
        errors[op.label] = errs
    shutil.rmtree(out_root, ignore_errors=True)
    return Pass(wall_s, size, digests, errors)


class Tally:
    """Operations attempted and failed; every failure is also printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)

    def record_pass(self, name: str, p: Pass, reference: Pass | None) -> None:
        """Count each op of a pass; outputs must match the reference pass byte
        for byte, since every pass runs the same commands on the same seed."""
        for label, errs in p.errors.items():
            if reference is not None and p.digests[label] != reference.digests[label]:
                errs = errs + ["outputs differ from the first pass at the same seed"]
            self.record(f"{name}/{label}", errs)


def run_job(job: dict, ready: dict) -> dict:
    import numpy
    import scipy

    work = Path(job["work"])
    configs = {stem: Path(path) for stem, path in job["configs"].items()}
    run = traced_job(job, ready, configs, work) if job["trace"] else untraced_job(job, configs, work)
    run["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    run["threads"] = _thread_count()
    return run


def _thread_count() -> int | None:
    """Threads of this worker at the end of its job (Linux only)."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def untraced_job(job, configs, work) -> dict:
    workload = WORKLOADS[job["workload"]]
    tally = Tally()
    passes: list[Pass] = []
    start = time.perf_counter()
    # At least two passes (the determinism check needs a second), then only
    # passes that should end within the measured time.
    while len(passes) < 2 or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in passes)
        <= job["seconds"]
    ):
        p = run_pass(workload, configs, work / f"pass{len(passes)}")
        tally.record_pass(workload.name, p, passes[0] if passes else None)
        passes.append(p)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "metrics": {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "output_mb": (statistics.median(p.output_bytes for p in passes) / 1e6, "MB"),
        },
    }


# Unit of every per-layer metric the traced run reports.
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.load_config_ms": "ms",
    "cli.run_command_s": "s",
    "games.payoff_rule_us": "us",
    "games.payoff_table_us": "us",
    "model.llm_utility_calls": "count",
    "model.realizations": "count",
    "model.llm_utility_s": "s",
    "model.us_per_realization": "us",
    "model.mixed_realization_us": "us",
    "model.aggregate_mass_us": "us",
    "oneshot.check_equilibrium_s": "s",
    "oneshot.best_response_s": "s",
    "feasibility.payoff_vertices_s": "s",
    "feasibility.vertex_count": "count",
    "feasibility.minmax_s.llm0": "s",
    "feasibility.minmax_s.llm1": "s",
    "feasibility.minmax_s.llm2": "s",
    "feasibility.decompose_target_s": "s",
    "protocol.derive_params_s": "s",
    "protocol.validate_params_s": "s",
    "protocol.block_length": "count",
    "protocol.honest_step_us": "us",
    "protocol.observe_and_update_us": "us",
    "sim.periods": "count",
    "sim.horizon": "count",
    "sim.run_repeated_s": "s",
    "sim.us_per_period": "us",
    "sim.estimate_deviation_gain_s": "s",
    "sim.to_jsonl_s": "s",
    "sim.runlog_bytes_per_period": "B",
    **{f"sim.finite_population_run_s.n{n}": "s" for n in FINITE_SIZES},
    "sim.finite_ns_per_client_period": "ns",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

# Counts that must repeat exactly between two traced passes of one workload.
REPEATED_COUNTS = (
    "model.realizations",
    "model.llm_utility_calls",
    "feasibility.vertex_count",
    "protocol.block_length",
    "sim.horizon",
    "sim.periods",
    "sim.runlog_bytes_per_period",
)


def layer_metrics(spans: dict[str, list]) -> dict:
    """Per-layer metrics from one traced pass of each workload."""
    ev, pl, fr, fi = (spans[n] for n in ("eval-bounded10", "plan-heist", "folk-run-pd", "finite-pd"))
    everything = [s for group in spans.values() for s in group]
    m = {}
    m["cli.load_config_ms"] = 1e3 * statistics.median(
        s[2] - s[1] for s in tr.named(everything, "cli.load_config")
    )

    m["model.llm_utility_calls"] = len(tr.named(ev, "model.llm_utility"))
    m["model.realizations"] = tr.info_sum(ev, "model.llm_utility", "realizations")
    m["model.llm_utility_s"] = tr.total_s(ev, "model.llm_utility")
    m["model.us_per_realization"] = 1e6 * m["model.llm_utility_s"] / m["model.realizations"]
    m["oneshot.check_equilibrium_s"] = tr.total_s(ev, "oneshot.check_equilibrium")

    m["oneshot.best_response_s"] = tr.total_s(pl, "oneshot.best_response")
    m["feasibility.payoff_vertices_s"] = tr.total_s(pl, "feasibility.payoff_vertices")
    m["feasibility.vertex_count"] = tr.info_first(pl, "feasibility.payoff_vertices", "vertex_count")
    for s in tr.named(pl, "feasibility.minmax"):
        m[f"feasibility.minmax_s.llm{s[4]['llm']}"] = s[2] - s[1]
    m["feasibility.decompose_target_s"] = tr.total_s(pl, "feasibility.decompose_target")
    m["protocol.derive_params_s"] = tr.total_s(pl, "protocol.derive_params")
    m["protocol.validate_params_s"] = tr.total_s(pl, "protocol.validate_params")

    m["protocol.block_length"] = tr.info_first(fr, "protocol.derive_params", "block_length")
    m["sim.horizon"] = tr.info_first(fr, "sim.run_repeated", "horizon")
    m["sim.periods"] = tr.info_sum(fr, "sim.run_repeated", "horizon")
    m["sim.run_repeated_s"] = tr.total_s(fr, "sim.run_repeated")
    m["sim.us_per_period"] = 1e6 * m["sim.run_repeated_s"] / m["sim.periods"]
    m["sim.estimate_deviation_gain_s"] = tr.total_s(fr, "sim.estimate_deviation_gain")
    m["sim.to_jsonl_s"] = tr.total_s(fr, "sim.RunLog.to_jsonl")
    jsonl = tr.named(fr, "sim.RunLog.to_jsonl")
    m["sim.runlog_bytes_per_period"] = sum(s[4]["bytes"] for s in jsonl) / sum(
        s[4]["horizon"] for s in jsonl
    )

    runs = tr.named(fi, "sim.finite_population_run")
    for n in FINITE_SIZES:
        m[f"sim.finite_population_run_s.n{n}"] = sum(
            s[2] - s[1] for s in runs if s[4]["clients_per_role"] == n
        )
    client_periods = sum(s[4]["clients_per_role"] * s[4]["periods"] for s in runs)
    m["sim.finite_ns_per_client_period"] = 1e9 * tr.total_s(fi, "sim.finite_population_run") / client_periods
    return m


def traced_job(job, ready, configs, work) -> dict:
    """An untraced pass of the chosen workload, two traced passes of it, one
    traced pass of every other workload, then the layer probes."""
    name = job["workload"]
    tally = Tally()
    untraced = run_pass(WORKLOADS[name], configs, work / "untraced")
    tally.record_pass(name, untraced, None)

    tracer = tr.Tracer()
    spans, walls = {}, []

    def traced_pass(workload: str, label: str) -> None:
        p = run_pass(WORKLOADS[workload], configs, work / label)
        tally.record_pass(label, p, untraced if workload == name else None)
        spans[label] = tracer.take()
        if workload == name:
            walls.append(p.wall_s)

    tracer.install()
    try:
        for label in [name, f"{name}#2", *(w for w in WORKLOADS if w != name)]:
            traced_pass(label.split("#")[0], label)
    finally:
        tracer.uninstall()

    repeat = spans.pop(f"{name}#2")
    metrics = layer_metrics(spans)
    again = layer_metrics({**spans, name: repeat})
    tally.record(
        "counts-repeat",
        [f"{c}: {metrics[c]} then {again[c]}" for c in REPEATED_COUNTS if metrics[c] != again[c]],
    )
    metrics["cli.import_s"] = ready["import_s"]
    metrics["cli.run_command_s"] = statistics.mean(
        s[2] - s[1] for s in tr.named(spans[name], "cli.run_command")
    )
    metrics.update(tr.probe_payoffs(configs, job["seed"]))
    metrics.update(tr.probe_mixed_realization(configs, job["seed"]))
    replay, errors = tr.probe_protocol_replay(configs, job["seed"])
    metrics.update(replay)
    tally.record("protocol-replay", errors)

    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.traced_wall_s"] = statistics.mean(walls)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced.wall_s
    metrics["trace.overhead_pct"] = 100 * metrics["trace.overhead_s"] / untraced.wall_s
    metrics["trace.spans"] = tr.write_spans(Path(job["spans"]), {**spans, f"{name}#2": repeat})
    if metrics.keys() != LAYER_UNITS.keys():
        raise RuntimeError(f"per-layer metrics differ from LAYER_UNITS: {metrics.keys() ^ LAYER_UNITS.keys()}")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()},
    }
