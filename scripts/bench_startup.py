"""Time CLI start-up per subcommand, and two real runs, on two checkouts.

    python3 scripts/bench_startup.py --parent ../spotcov-parent --change . --repeats 7 --json startup.json

One --help sample is the wall time of ``python3 -m spotcov.cli [<cmd>] --help``
with PYTHONPATH set to the checkout's ``src``.  The two real runs are
``estimate`` with a CV bandwidth and 95 % bands on the checkout's
``tests/data/fixture_prices.csv``, and ``mc-study`` on its
``configs/smoke.yaml``, each writing to a fresh temporary directory.  The
sides alternate sample by sample, the parent first.  Every sample also
records the child's maximum resident set size from ``os.wait4``.  Per
command and side the summary gives the median, the minimum and the maximum
of --repeats samples, in seconds, and each sample's max RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ["", "simulate", "estimate", "select-bandwidth", "mc-study", "forecast"]
# name -> (subcommand, config) of each real run; a config is written as JSON, which YAML reads,
# with its prices path taken in the checkout, and None stands for configs/smoke.yaml
RUNS = {
    "estimate (cv, bands)": ("estimate", {
        "prices": "tests/data/fixture_prices.csv", "bandwidth": "cv",
        "cv": {"candidates": [0.1, 0.15, 0.2, 0.3], "window": [0.3, 1.7]},
        "taus": {"start": 0.3, "stop": 1.7, "count": 29}, "band_level": 0.95,
    }),
    "mc-study (smoke.yaml)": ("mc-study", None),
}


def timed(argv: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and max RSS in MB of one child process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return elapsed, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def sample(checkout: Path, command: str) -> tuple[float, float]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cli = [sys.executable, "-m", "spotcov.cli"]
    if command not in RUNS:
        return timed([*cli, *([command] if command else []), "--help"], env)
    sub, config = RUNS[command]
    with tempfile.TemporaryDirectory() as tmp:
        if config is None:
            path = checkout / "configs" / "smoke.yaml"
        else:
            path = Path(tmp, "config.yaml")
            path.write_text(json.dumps({**config, "prices": str(checkout / config["prices"])}), encoding="utf-8")
        return timed([*cli, sub, "--config", str(path), "--out", str(Path(tmp, "out"))], env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)

    result = {}
    for command in [*COMMANDS, *RUNS]:
        samples = {"parent": [], "change": []}
        for _ in range(args.repeats):
            for side in samples:
                samples[side].append(sample(getattr(args, side).resolve(), command))
        result[command or "(group)"] = {
            side: {
                "median_s": statistics.median(t for t, _ in s),
                "min_s": min(t for t, _ in s),
                "max_s": max(t for t, _ in s),
                "max_rss_mb": [rss for _, rss in s],
            }
            for side, s in samples.items()
        }
    text = json.dumps(result, indent=1)
    print(text)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
