"""Run every shipped config on two checkouts and compare the files they
write, byte for byte.

    python3 scripts/compare_outputs.py --parent ../spotcov-parent --change . --json outputs.json

For each checkout, every ``configs/*.yaml`` of that checkout runs as one
``python -m spotcov.cli <command> --config <config>`` subprocess, with
``PYTHONPATH`` set to the checkout's ``src/`` and a fresh temporary
directory as the working directory, so the configs' relative ``out:`` and
``prices:`` paths resolve inside it.  A config's command is the one whose
required field it sets (``n`` simulate, ``prices`` estimate,
``frequencies`` mc-study, ``days`` forecast).  Simulate configs run first,
because the estimate configs read ``runs/sim_*/prices.csv``.  Every file
either checkout wrote (CSVs and config echoes) is then compared by its
SHA-256.  The exit status is 1, after the JSON is written, if any file
differs or exists on one side only, or if no file was written at all.

For every CSV that differs but has the same header and row count on both
sides, the JSON's ``max_rel_diff`` also gives, per numeric column, the
largest relative difference |change - parent| / |parent| over its cells
(0 where the cells are equal, inf where the parent's is 0 or only one
side's is not finite), so a change that moves results in their last
digits shows its size.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

COMMANDS = {"n": "simulate", "prices": "estimate", "frequencies": "mc-study", "days": "forecast"}


def command_of(config: Path) -> str:
    """The subcommand a config is written for, from the required field it sets."""
    raw = yaml.safe_load(config.read_text(encoding="utf-8")) or {}
    found = [command for key, command in COMMANDS.items() if key in raw]
    if len(found) != 1:
        sys.exit(f"error: cannot tell which command {config} is for")
    return found[0]


def run(checkout: Path, workdir: Path) -> dict[str, str]:
    """Run every config of the checkout in workdir; the SHA-256 of each file
    written, by its path relative to workdir."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    configs = [(command_of(c), c) for c in sorted((checkout / "configs").glob("*.yaml"))]
    for command, config in sorted(configs, key=lambda item: item[0] != "simulate"):
        argv = [sys.executable, "-m", "spotcov.cli", command, "--config", str(config)]
        res = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
        if res.returncode != 0:
            sys.exit(f"error: {checkout} {command} {config.name} exited {res.returncode}: {res.stderr.strip()}")
    return {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def _columns(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [list(col) for col in zip(*rows[1:])]


def column_differences(parent: Path, change: Path) -> dict[str, float] | None:
    """The largest relative difference per numeric column of two CSVs;
    None when their headers or row counts differ."""
    (header, old), (header_new, new) = _columns(parent), _columns(change)
    if header != header_new or [len(c) for c in old] != [len(c) for c in new]:
        return None
    result = {}
    for name, a, b in zip(header, old, new):
        try:
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        except ValueError:  # a text column
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(b - a) / np.abs(a)
        rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        rel[np.isnan(rel)] = np.inf  # a non-finite cell on one side only
        result[name] = float(rel.max(initial=0.0))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)

    files, workdirs = {}, {}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            workdirs[side] = Path(tmp) / side
            workdirs[side].mkdir()
            files[side] = run(checkout.resolve(), workdirs[side])
        names = sorted(files["parent"].keys() | files["change"].keys())
        differ = [name for name in names if files["parent"].get(name) != files["change"].get(name)]
        max_rel_diff = {
            name: column_differences(workdirs["parent"] / name, workdirs["change"] / name)
            for name in differ
            if name.endswith(".csv") and name in files["parent"] and name in files["change"]
        }
    result = {
        "files": len(names),
        "identical": len(names) - len(differ),
        "differ": differ,
        "max_rel_diff": max_rel_diff,
        "sha256": files,
    }
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{result['identical']} of {len(names)} files identical")
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ or not names else 0


if __name__ == "__main__":
    sys.exit(main())
