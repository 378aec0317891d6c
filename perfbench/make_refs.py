"""Regenerate refs/<workload>.npz from the program in this checkout.

    python3 perfbench/make_refs.py [workload ...]

Runs every case of each workload's pool once through the CLI and stores
its outputs (see refs.py).  The references pin the outputs of the commit
that defined the benchmark; regenerate them only for a change that is
meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import refs
from run import HERE, Bench, _import_program
from workloads import CASES, WORKLOADS


def main(names: list[str]) -> int:
    cli = _import_program()

    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        (HERE / ".work").mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"refs-{name}-", dir=HERE / ".work")
        try:
            bench = Bench(cli, workload, seed=0, workdir=Path(workdir))
            bench.order = list(range(CASES))
            bench.write_inputs()
            cases = {}
            for case in range(CASES):
                bench.job()
                job = bench.jobs[-1]
                if job["status"] not in (0, None) or job["failed_reps"]:
                    sys.exit(f"{name} case {case}: job failed ({job['status']}, {job['failed_reps']} reps)")
                cases[case] = refs.capture(job["out"], workload.outputs(), job["stdout"])
            refs.save(HERE / "refs" / f"{name}.npz", cases)
            print(f"{name}: {CASES} cases stored")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
