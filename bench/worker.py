"""One benchmark client in a fresh interpreter.

``python3 bench/worker.py <config>`` imports ``metagame.cli`` from the
checkout's ``src``, loads the config and builds its game, population and
``main`` profile, then prints ``READY <json>`` on standard output.  That is
the set-up ``run.py`` times.  The worker then reads one line from standard
input: empty means exit, otherwise a JSON job that runs a workload, untraced
or traced, and ends with one JSON result line on standard output.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(config: str) -> dict:
    sys.path.insert(0, str(SRC))
    import metagame.cli as cli

    import_s = time.perf_counter() - T0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"metagame was imported from {cli.__file__}, not from {SRC}")
    cfg = cli.load_config(config)
    game = cli.build_game(cfg)
    cli.build_population(cfg)
    cli.build_profile(cfg, game, "main")
    return {"import_s": import_s}


def main() -> int:
    proto = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream free of program output
    ready = setup(sys.argv[1])
    print("READY " + json.dumps(ready), file=proto, flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    from passes import run_job

    result = run_job(json.loads(line), ready)
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
