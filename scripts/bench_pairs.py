"""Run the benchmark on two checkouts in alternating pairs and summarise
each end-to-end metric.

    python3 scripts/bench_pairs.py --parent ../spotcov-parent --change . \
        --workloads mc-jump forecast estimate-cv --pairs 10 --seed 13001 --json pairs.json

Pair i of a workload runs ``python3 perfbench/run.py --workload W --seed S
--seconds X --trace 0`` in each checkout with the same seed S (the first
workload's pairs use seeds --seed, --seed + 1, ...; each further workload
starts 100 higher).  The parent runs first in odd pairs and the change
first in even pairs.  Per metric the summary gives both sides' quartiles
(``statistics.quantiles``, inclusive), the change's wins (ties count for
neither side), the relative change of the medians and the parent's IQR.
The exit status is 1, after the JSON is written, if any run reported
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = {  # name -> better
    "setup_s": "lower",
    "job_s_p50": "lower",
    "job_s_tail": "lower",
    "jobs_per_s": "higher",
    "peak_rss_mb": "lower",
}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run's result line, plus the environment stamp."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"error: {checkout} {workload} seed {seed} exited {res.returncode}: {res.stderr.strip()}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "env": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarise(pairs: list[dict]) -> dict:
    out = {
        "pairs": len(pairs),
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
    }
    for name, better in METRICS.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if better == "lower" else -1
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        out[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": f"{sum(sign * (c - p) < 0 for p, c in zip(parent, change))}/{len(pairs)}",
            "median_change_rel": cq[1] / pq[1] - 1,
            "parent_iqr": pq[2] - pq[0],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first workload's first pair")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    result = {"summary": {}, "runs": {}}
    for w, workload in enumerate(args.workloads):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + 100 * w + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                checkout = (args.parent if side == "parent" else args.change).resolve()
                pair[side] = run(checkout, workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1} seed {seed}: job_s_p50 parent "
                  f"{pair['parent']['metrics']['job_s_p50']:.4f} change {pair['change']['metrics']['job_s_p50']:.4f}",
                  flush=True)
        result["summary"][workload] = summarise(pairs)
        result["runs"][workload] = pairs
        if args.json:  # after each workload, so a cut run keeps what it finished
            args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result["summary"], indent=1))
    wrong = [w for w, summary in result["summary"].items() if not summary["all_correct"]]
    if wrong:
        print(f"error: runs reported wrong outputs on {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
