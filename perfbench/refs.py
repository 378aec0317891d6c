"""Reference outputs and the check every benchmark job must pass.

``refs/<workload>.npz`` holds, for every case of the pool, each data CSV
the job wrote at the commit that defined the benchmark: its header, its
numeric columns as float64 and its text columns as strings.  An
``estimate-cv`` case also stores the bandwidth the CLI printed.

A job passes when it wrote every expected file with the same header and
shape, every text cell is equal, the chosen bandwidth is equal bitwise,
and every number is within

    |out - ref| <= RTOL * |ref| + ATOL_SCALE * max|ref column|.

RTOL admits the last-digit changes of a reordered sum (FFT convolution,
a batched GEMM in place of per-point reductions, which agree to ~1e-14)
while any wrong estimate -- another bandwidth, a dropped or extra
increment, a wrong kernel -- moves values by far more.  The column-scaled
floor covers entries near zero, such as QQ values next to the median.
Requiring the same bandwidth is safe under reordering too: over the 64
estimate-cv cases the best CV value beats the second best by at least
4.8e-5 relative.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL_SCALE = 1e-12

_H_LINE = re.compile(r"^selected bandwidth h=(.+)$", re.MULTILINE)


def read_table(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(header, numbers, text): numbers has NaN in text columns, text has
    '' in numeric columns."""
    with Path(path).open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    ncol = len(header)
    if any(len(r) != ncol for r in body):
        raise ValueError(f"{Path(path).name}: ragged rows")
    text = np.array(body, dtype=str).reshape(len(body), ncol)
    nums = np.full(text.shape, np.nan)
    for j in range(ncol):
        try:
            nums[:, j] = [float(x) for x in text[:, j]]
            text[:, j] = ""
        except ValueError:
            pass
    return header, nums, text


def chosen_bandwidth(stdout: str) -> float | None:
    m = _H_LINE.search(stdout)
    return float(m.group(1)) if m else None


def capture(outdir: Path, files: list[str], stdout: str) -> dict[str, np.ndarray]:
    """One job's outputs as the arrays a reference stores."""
    out: dict[str, np.ndarray] = {}
    for name in files:
        header, nums, text = read_table(outdir / name)
        out[f"{name}|header"] = np.array(header, dtype=str)
        out[f"{name}|nums"] = nums
        if np.any(text != ""):
            out[f"{name}|text"] = text
    h = chosen_bandwidth(stdout)
    if h is not None:
        out["chosen_h"] = np.array([h])
    return out


def save(path: Path, cases: dict[int, dict[str, np.ndarray]]) -> None:
    """Store every case; each key holds one array stacked over the cases."""
    order = sorted(cases)
    if order != list(range(len(order))):
        raise ValueError("cases must be numbered 0..n-1")
    keys = cases[0].keys()
    if any(c.keys() != keys for c in cases.values()):
        raise ValueError("cases wrote different output sets")
    np.savez_compressed(path, **{key: np.stack([cases[c][key] for c in order]) for key in keys})


def load(path: Path) -> dict[int, dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as z:
        stacked = {key: z[key] for key in z.files}
    count = len(next(iter(stacked.values())))
    return {c: {key: arr[c] for key, arr in stacked.items()} for c in range(count)}


def compare(ref: dict[str, np.ndarray], got: dict[str, np.ndarray]) -> list[str]:
    """Differences between a job's outputs and its reference; empty if it passes."""
    problems = []
    if set(ref) != set(got):
        return [f"output set differs: missing {sorted(set(ref) - set(got))}, extra {sorted(set(got) - set(ref))}"]
    for key, r in ref.items():
        g = got[key]
        if r.shape != g.shape:
            problems.append(f"{key}: shape {g.shape} != reference {r.shape}")
        elif key == "chosen_h" or r.dtype.kind == "U":
            if not np.array_equal(r, g):
                problems.append(f"{key}: {g.ravel()[:4]} != reference {r.ravel()[:4]}")
        else:
            text_col = np.isnan(r)
            scale = np.where(text_col, 0.0, np.abs(r)).max(axis=0, initial=0.0)
            tol = RTOL * np.abs(r) + ATOL_SCALE * scale
            bad = ~text_col & ~(np.abs(g - r) <= tol)
            bad |= text_col != np.isnan(g)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                problems.append(
                    f"{key}: {int(bad.sum())} value(s) off, first at row {i} col {j}: "
                    f"{g[i, j]!r} vs reference {r[i, j]!r}"
                )
    return problems
