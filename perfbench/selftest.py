"""Self-test of the output check: a correct job passes, a last-digit
change of the size a reordered sum makes passes, and a wrong output is
flagged.

    python3 perfbench/selftest.py

Runs one job per workload, then compares perturbed copies of its outputs
against the stored reference.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import refs
from run import HERE, Bench, _import_program
from workloads import WORKLOADS

# (description, relative change, should the check flag it)
PERTURBATIONS = [
    ("reordered-sum rounding, 1e-13 relative", 1e-13, False),
    ("wrong estimate, 1e-6 relative", 1e-6, True),
    ("wrong estimate, 1e-3 relative", 1e-3, True),
]


def main() -> int:
    cli = _import_program()

    failures = []

    def expect(label: str, problems: list[str], flagged: bool):
        ok = bool(problems) == flagged
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {'flagged' if problems else 'passed'}")
        if not ok:
            failures.append(label)

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work"))
    try:
        for name, workload in WORKLOADS.items():
            bench = Bench(cli, workload, seed=0, workdir=workdir / name)
            bench.write_inputs()
            bench.job()
            job = bench.jobs[-1]
            ref = refs.load(HERE / "refs" / f"{name}.npz")[job["case"]]
            got = refs.capture(job["out"], workload.outputs(), job["stdout"])
            expect(f"{name}: unchanged outputs", refs.compare(ref, got), False)

            # perturb, in each file, the largest entry of its most varied
            # numeric column (an estimate, not a time stamp or a count)
            for key in [k for k in got if k.endswith("|nums")]:
                nums = got[key]
                spread = [len(np.unique(c)) if not np.isnan(c).all() else -1 for c in nums.T]
                j = len(spread) - 1 - int(np.argmax(spread[::-1]))
                i = int(np.argmax(np.abs(nums[:, j])))
                for label, rel, flagged in PERTURBATIONS:
                    bad = {k: v.copy() for k, v in got.items()}
                    bad[key][i, j] *= 1.0 + rel
                    expect(f"{name}: {key.split('|')[0]} {label}", refs.compare(ref, bad), flagged)

            missing = dict(got)
            missing.pop(f"{workload.outputs()[-1]}|nums")
            expect(f"{name}: a missing output file", refs.compare(ref, missing), True)
            if "chosen_h" in got:
                other = dict(got, chosen_h=got["chosen_h"] * 2.0)
                expect(f"{name}: another chosen bandwidth", refs.compare(ref, other), True)
            text_keys = [k for k in got if k.endswith("|text")]
            for key in text_keys[:1]:
                bad = dict(got)
                bad[key] = got[key].copy()
                i, j = np.argwhere(bad[key] != "")[0]
                bad[key][i, j] = bad[key][i, j] + "x"
                expect(f"{name}: {key.split('|')[0]} changed label", refs.compare(ref, bad), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} expectation(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
