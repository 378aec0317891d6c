"""Time CLI start-up per subcommand on two checkouts.

    python3 scripts/bench_startup.py --parent ../spotcov-parent --change . --repeats 7 --json startup.json

One sample is the wall time of ``python3 -m spotcov.cli [<cmd>] --help``
with PYTHONPATH set to the checkout's ``src``; the sides alternate sample by
sample, the parent first.  Per subcommand and side the summary gives the
median, the minimum and the maximum of --repeats samples, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = ["", "simulate", "estimate", "select-bandwidth", "mc-study", "forecast"]


def sample(checkout: Path, command: str) -> float:
    argv = [sys.executable, "-m", "spotcov.cli", *([command] if command else []), "--help"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)

    result = {}
    for command in COMMANDS:
        times = {"parent": [], "change": []}
        for _ in range(args.repeats):
            for side in times:
                times[side].append(sample(getattr(args, side).resolve(), command))
        result[command or "(group)"] = {
            side: {"median_s": statistics.median(t), "min_s": min(t), "max_s": max(t)} for side, t in times.items()
        }
    text = json.dumps(result, indent=1)
    print(text)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
