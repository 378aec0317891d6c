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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--json", type=Path, help="also write the result here")
    args = ap.parse_args(argv)

    files = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        with tempfile.TemporaryDirectory(prefix=f"compare-outputs-{side}-") as tmp:
            files[side] = run(checkout.resolve(), Path(tmp))
    names = sorted(files["parent"].keys() | files["change"].keys())
    differ = [name for name in names if files["parent"].get(name) != files["change"].get(name)]
    result = {"files": len(names), "identical": len(names) - len(differ), "differ": differ, "sha256": files}
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{result['identical']} of {len(names)} files identical")
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ or not names else 0


if __name__ == "__main__":
    sys.exit(main())
