"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it times set-up in
several fresh interpreters, then lets the last of them run the workload's
command sequence again and again for ``--seconds`` seconds (at least twice),
and reports the end-to-end metrics.  With ``--trace 1`` one worker runs the
traced passes and probes of ``passes.traced_job`` and reports the per-layer
metrics.  The last line of standard output is the JSON result; earlier lines
describe the machine, the code and each metric.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "metagame"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170  # workers still running then are killed
# BLAS and OpenMP pools stay at one thread; HiGHS already runs on one.
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# ROADMAP item 1 baseline (2-core machine), keyed by the traced metric that
# reproduces it; a figure counts as reproduced within +-25%.
BASELINES = {
    "model.us_per_realization": 34.0,
    "feasibility.minmax_s.llm0": 3.1,
    "sim.us_per_period": 73.0,
    "sim.runlog_bytes_per_period": 700.0,
}


def machine_and_code(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(config: Path, job: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Start a fresh worker; return (seconds until it is set up, job result).

    The worker exits after set-up when ``job`` is None.  A watchdog kills it
    at ``deadline`` (a ``perf_counter`` time); the process is always reaped
    before returning.
    """
    env = {**os.environ, **SINGLE_THREAD}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(config)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write((json.dumps(job) if job else "").encode() + b"\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if not ready.startswith(b"READY ") or code != 0:
        raise RuntimeError(f"worker failed during set-up or run (exit code {code})")
    if job is None:
        return setup_s, None
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaches the finally blocks that kill its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cli.py").is_file():
        print(f"error: no metagame sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    configs = write_configs(args.seed, work / "configs")
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work": str(work),
        "configs": {k: str(v) for k, v in configs.items()},
        "spans": str(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"),
    }
    setup_config = configs[workload.setup_config]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        samples = []
        if not args.trace:
            samples = [
                run_worker(setup_config, None, deadline)[0] for _ in range(SETUP_SAMPLES - 1)
            ]
        setup_s, result = run_worker(setup_config, job, deadline)
        samples.append(setup_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(samples), "s")
    info = {
        **machine_and_code(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "setup_samples_s": samples,
        **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")},
    }
    print(json.dumps({"info": info}))
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:42s} {value:>16.6g} {unit}")
    if args.trace:
        for name, base in BASELINES.items():
            ratio = metrics[name][0] / base
            verdict = "reproduced" if 0.75 <= ratio <= 1.25 else "not reproduced"
            print(f"baseline {name}: {metrics[name][0]:.4g} vs ROADMAP {base:g} "
                  f"({ratio:.2f}x, {verdict})")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps({"info": info, **out}, indent=2) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
