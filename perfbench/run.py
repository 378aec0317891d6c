"""Benchmark entry point: run one workload from a seed, check every job's
outputs against the stored references, and print the metrics.

    python3 perfbench/run.py --workload estimate-cv --seed 1 --seconds 35 --trace 0

Each job is one in-process CLI call, ``spotcov.cli.main([...],
standalone_mode=False)``, so config parsing, compute and CSV writes are
all timed.  The loop is closed: one client, each job starting when the
previous one ends, every job with ``--threads 1``.

Set-up (imports once; then, three times, writing the case inputs and one
untimed warm-up job) is reported as ``setup_s``: import time plus the
median of the three.  With ``--trace 0`` the whole ``--seconds`` is one
timed phase.  With ``--trace 1`` the first half is timed untraced and the
second half traced (see tracing.py); the per-layer metrics come from the
traced half and ``trace.overhead`` is its job rate over the untraced
half's.  Outputs are checked after the timed phases, never inside them.

The last line of standard output is the JSON result; the lines before it
stamp the environment and give each metric with its unit.  The full
result, per-layer table included, is also written to perfbench/.out/.
"""

from __future__ import annotations

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402
import refs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CASES, D, WORKLOADS, case_order  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _import_program():
    """Import the package from this checkout's src/; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "spotcov" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}/spotcov")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    import spotcov.cli

    if Path(spotcov.cli.__file__).resolve().parent != (src / "spotcov").resolve():
        sys.exit(f"error: imported spotcov from {spotcov.cli.__file__}, not {src}")
    return spotcov.cli


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the fastest job when there are too few."""
    s = sorted(durations)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[0], 0.0
    return s[k], 100.0 * (k + 1) / len(s)


class Bench:
    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.w = workload
        self.order = case_order(seed)
        self.cases = CASES
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.jobs: list[dict] = []
        self.failed_reps: list[int] = []
        if workload.name == "mc-jump":
            self._capture_failed_reps()

    def _capture_failed_reps(self):
        """run_mc_study drops failed replications into McReport.failed_reps,
        which the CLI never writes; keep the count for error_rate."""
        orig = self.cli.run_mc_study
        sink = self.failed_reps

        def run_mc_study(cfg):
            report = orig(cfg)
            sink.append(len(report.failed_reps))
            return report

        self.cli.run_mc_study = run_mc_study

    def write_inputs(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.configs = [self.w.write_inputs(self.inputs, case) for case in range(self.cases)]

    def job(self, tracer=None) -> float:
        """Run the next job; return its wall time.  Never raises."""
        k = len(self.jobs)
        case = self.order[k % self.cases]
        out = self.workdir / "jobs" / f"{k:05d}"
        argv = self.w.argv(self.configs[case], out)
        buf = io.StringIO()
        record = {"case": case, "out": out, "status": 0}
        n_failed = len(self.failed_reps)

        def call():
            with contextlib.redirect_stdout(buf):
                try:
                    self.cli.main(argv, standalone_mode=False)
                except SystemExit as e:
                    record["status"] = e.code
                except Exception as e:  # any crash is a failed operation
                    record["status"] = repr(e)

        t0 = perf_counter()
        if tracer is None:
            call()
            record["stats"] = None
        else:
            _, record["stats"] = tracer.job(call)
        record["seconds"] = perf_counter() - t0
        record["stdout"] = buf.getvalue()
        record["failed_reps"] = sum(self.failed_reps[n_failed:])
        self.jobs.append(record)
        return record["seconds"]

    def setup(self, import_s: float) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.write_inputs()
            self.job()
            times.append(perf_counter() - t0)
        return import_s + statistics.median(times)

    def timed_phase(self, seconds: float, tracer=None) -> dict:
        first = len(self.jobs)
        t0 = perf_counter()
        while True:
            self.job(tracer)
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                break
        durations = [j["seconds"] for j in self.jobs[first:]]
        return {"durations": durations, "elapsed": elapsed, "jobs": self.jobs[first:]}

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every job run, warm-ups included."""
        ref_cases = refs.load(HERE / "refs" / f"{self.w.name}.npz")
        attempted = failed = 0
        problems = []
        for k, job in enumerate(self.jobs):
            ops = self.w.ops_per_job
            attempted += ops
            if job["status"] not in (0, None):
                failed += ops
                problems.append(f"job {k} (case {job['case']}): exit status {job['status']}")
                continue
            try:
                got = refs.capture(job["out"], self.w.outputs(), job["stdout"])
                diffs = refs.compare(ref_cases[job["case"]], got)
            except (OSError, ValueError) as e:
                diffs = [f"unreadable output: {e}"]
            if diffs:
                failed += ops
                problems += [f"job {k} (case {job['case']}): {d}" for d in diffs]
            else:
                failed += min(ops, job["failed_reps"])
            shutil.rmtree(job["out"], ignore_errors=True)
        return attempted, failed, problems


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


def per_layer(jobs: list[dict]) -> dict[str, float]:
    """Per-job values: counts are per-job means (exact when every job does
    the same work), times are per-job medians."""
    names = sorted({name for j in jobs for name in j["stats"]})
    out = {}
    for name in names:
        fields = sorted({f for j in jobs for f in j["stats"].get(name, {})})
        for field in fields:
            values = [j["stats"].get(name, {}).get(field, 0.0) for j in jobs]
            key = f"{name}.{field}"
            if field.endswith("_s"):
                out[key] = statistics.median(values)
            else:
                out[key] = sum(values) / len(values)
    if "mc.run_mc_study.reps" in out:
        out["mc.reps"] = out.pop("mc.run_mc_study.reps")
        out["mc.failed_reps"] = out.pop("mc.run_mc_study.failed_reps")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = _import_program()
    import_s = perf_counter() - _T_START

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        bench = Bench(cli, workload, args.seed, workdir)
        setup_s = bench.setup(import_s)
        if args.trace:
            plain = bench.timed_phase(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = bench.timed_phase(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            plain = bench.timed_phase(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = bench.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    durations = plain["durations"]
    tail_s, tail_pct = tail(durations)
    jobs_per_s = len(durations) / plain["elapsed"]
    e2e = {
        "setup_s": setup_s,
        "job_s_p50": statistics.median(durations),
        "job_s_tail": tail_s,
        "jobs_per_s": jobs_per_s,
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {}
    if args.trace:
        layers = per_layer(traced["jobs"])
        layers["bandwidth.cv_bandwidth.bytes"] = layers.get("bandwidth.eval_scaled.points", 0.0) * D * 8
        layers["trace.overhead"] = (len(traced["durations"]) / traced["elapsed"]) / jobs_per_s

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}

    env = envinfo.stamp(ROOT, args.seed)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {len(durations)} timed jobs, trace {args.trace}")
    print(f"job_s_tail is the p{tail_pct:.1f} job time over {len(durations)} jobs")
    if workload.name == "mc-jump":
        print(f"reps_per_s = {jobs_per_s * workload.ops_per_job!r} 1/s")
    print(f"error_rate = {failed / attempted!r} ({failed} of {attempted} operations failed)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**e2e, **layers}.items():
        print(f"{name} = {value!r} {units.get(name) or _unit(name)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(
        result,
        env=env,
        end_to_end=e2e,
        import_s=import_s,
        per_layer=layers,
        durations=durations,
        problems=problems,
    )
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
