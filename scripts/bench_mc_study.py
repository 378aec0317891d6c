"""Time the paper-scale Monte Carlo study on two checkouts, in alternating
pairs, and check that both write byte-identical CSVs.

    python3 scripts/bench_mc_study.py --parent ../spotcov-parent --change . \
        --pairs 5 --reps 500 --json study.json

Each run is one ``python -m spotcov.cli mc-study --threads 1`` subprocess
with ``PYTHONPATH`` set to the checkout's ``src/``, on a copy of
``configs/mc_table_style.yaml`` (read from the change checkout) whose
``reps`` is replaced by ``--reps``.  The parent runs first in odd pairs and
the change first in even pairs.  The wall time includes interpreter
start-up.  The script exits 1 if any run fails or any pair's CSVs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import yaml

CONFIG = Path("configs") / "mc_table_style.yaml"


def run(checkout: Path, config: Path, out: Path) -> tuple[float, dict[str, bytes]]:
    """Wall time of one study run and the bytes of every CSV it wrote."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "spotcov.cli", "mc-study", "--config", str(config),
            "--out", str(out), "--threads", "1"]
    t0 = perf_counter()
    res = subprocess.run(argv, env=env, capture_output=True, text=True)
    seconds = perf_counter() - t0
    if res.returncode != 0:
        sys.exit(f"error: {checkout} exited {res.returncode}: {res.stderr.strip()}")
    return seconds, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout measured as the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)

    study = yaml.safe_load((args.change / CONFIG).read_text(encoding="utf-8"))
    study["reps"] = args.reps
    times: dict[str, list[float]] = {"parent": [], "change": []}
    identical = True
    with tempfile.TemporaryDirectory(prefix="bench-mc-study-") as tmp:
        tmp = Path(tmp)
        config = tmp / "study.yaml"
        config.write_text(yaml.safe_dump(study, sort_keys=False), encoding="utf-8")
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            csvs = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                seconds, csvs[side] = run(checkout.resolve(), config, tmp / f"{side}-{pair}")
                times[side].append(seconds)
            same = bool(csvs["parent"]) and csvs["parent"] == csvs["change"]
            identical &= same
            print(f"pair {pair}: parent {times['parent'][-1]:.2f} s, change {times['change'][-1]:.2f} s, "
                  f"{len(csvs['change'])} CSVs {'identical' if same else 'DIFFER'}", flush=True)

    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    result = {
        "config": str(CONFIG),
        "reps": args.reps,
        "threads": 1,
        "pairs": args.pairs,
        "csvs_identical": identical,
        "wall_s": times,
        "parent_q1_median_q3": quartiles(times["parent"]),
        "change_q1_median_q3": quartiles(times["change"]),
        "change_wins": f"{wins}/{args.pairs}",
        "median_change_rel": statistics.median(times["change"]) / statistics.median(times["parent"]) - 1,
    }
    text = json.dumps(result, indent=1)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
