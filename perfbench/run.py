"""jrcsim benchmark: one workload run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {sweep,detect,optimize} --seed N \
        --seconds S --trace {0,1}

The run generates its scenarios from the seed, times set-up in five fresh
processes (four set-up probes and the measured child) and runs the jobs in
the measured child, closed loop, one CLI command at a time, with BLAS and
OpenMP pinned to one thread. The last stdout line is the result JSON; the
line before it is a report with provenance and per-job detail. See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S  # noqa: E402
from workloads import CALIBRATION, EXIT_INFEASIBLE, WORKLOADS, designed_infeasible_share, generate  # noqa: E402

SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
REFERENCES = HERE / "reference_digests.json"


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare(workload: str, seed: int, work: Path) -> tuple[list[dict], Path]:
    """Write the run's scenario files and job list under a fresh work directory."""
    if not (ROOT / "src" / "jrcsim" / "__init__.py").is_file():
        raise BenchError(f"no jrcsim sources under {ROOT / 'src'}")
    shutil.rmtree(work, ignore_errors=True)
    (work / "scenarios").mkdir(parents=True)
    jobs = generate(workload, seed)
    for index, job in enumerate(jobs):
        config_path = work / "scenarios" / f"{index}.json"
        config_path.write_text(json.dumps(job["config"], indent=2, sort_keys=True) + "\n")
        job.update(index=index, config_path=str(config_path), out_dir=str(work / "out" / str(index)))
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps(jobs, indent=2) + "\n")
    return jobs, jobs_path


def run_child(jobs_path: Path, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--jobs", str(jobs_path), *extra]
    try:
        proc = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child did not finish within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric_specs(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _job_key(workload: str, seed: int, job: dict, table: str) -> str:
    return f"{workload}/{seed}/{job['scenario']}/{job['command']}/{table}"


def _compare_tables(workload: str, seed: int, records: list[dict]) -> dict:
    references = json.loads(REFERENCES.read_text())["digests"] if REFERENCES.is_file() else {}
    changed, unreferenced = set(), set()
    for job in records:
        for table, digest in job.get("digests", {}).items():
            key = _job_key(workload, seed, job, table)
            if key not in references:
                unreferenced.add(key)
            elif references[key] != digest:
                changed.add(key)
    return {"tables_changed": sorted(changed), "tables_unreferenced": len(unreferenced)}


def _check_reruns(records: list[dict]) -> None:
    """Fail a job whose tables differ from its own earlier pass: reruns must be byte-identical."""
    first: dict[tuple, dict] = {}
    for job in records:
        if "digests" in job and first.setdefault((job["scenario"], job["command"]), job["digests"]) != job["digests"]:
            job["problems"].append("tables differ from the same job's earlier pass")


def _observed_infeasible_share(one_pass: dict) -> float:
    codes = [job["exit"] for job in one_pass["jobs"] if job["command"] == "optimize"]
    return sum(code == EXIT_INFEASIBLE for code in codes) / len(codes) if codes else 0.0


def _calibrated(seconds: float, calibration_s: float, kind: str) -> float:
    """A time rescaled to the reference machine speed measured around it."""
    return seconds * REFERENCE_S[kind] / calibration_s


def _median_pass(passes: list[dict], key: str, kind: str = "") -> float:
    """One pass, job by job: the sum over jobs of each job's median across passes.

    Each job's median drops the passes a burst of machine noise hit, which a
    median of whole-pass sums cannot do once the pass is longer than a burst.
    With a calibration ``kind``, job times are calibrated first.
    """
    by_job: dict[tuple, list[float]] = {}
    for p in passes:
        for job in p["jobs"]:
            value = _calibrated(job[key], job["calibration_s"], kind) if kind else job[key]
            by_job.setdefault((job["scenario"], job["command"]), []).append(value)
    return sum(statistics.median(times) for times in by_job.values())


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    work = ROOT / ".perfbench-work" / f"{workload}-trace{trace}"
    jobs, jobs_path = prepare(workload, seed, work)
    # set-up is an end-to-end metric only: a traced run skips the probes
    setup = [run_child(jobs_path, "--setup-only") for _ in range(0 if trace else SETUP_PROBES)]
    child = run_child(
        jobs_path, "--seconds", str(seconds), "--trace", str(trace),
        "--spans", str(work / "spans.csv"), "--calibration", CALIBRATION[workload],
    )
    setup.append(child["setup"])

    untraced, traced = child["untraced"], child["traced"]
    records = [job for p in [child["warmup"], *untraced, *traced] for job in p["jobs"]]
    _check_reruns(records)
    failing = [job for job in records if job["problems"]]

    if trace:
        values = dict(child["layers"])
        for command in dict.fromkeys(job["command"] for job in records):
            values[f"cli.{command}.s"] = statistics.median(
                job["wall_s"] for p in untraced for job in p["jobs"] if job["command"] == command
            )
        values["trace.overhead_ratio"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
        )
    else:
        values = {
            "setup_s": statistics.median(
                _calibrated(s["setup_s"], s["calibration_s"], CALIBRATION["setup"]) for s in setup
            ),
            "wall_s": _median_pass(untraced, "wall_s", CALIBRATION[workload]),
            "cpu_s": _median_pass(untraced, "cpu_s", CALIBRATION[workload]),
            "peak_rss_mib": child["peak_rss_mib"],
        }
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in _metric_specs(trace).items()
    }
    result = {
        "correct": not failing,
        "attempted": len(records),
        "failed": len(failing),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        **child["provenance"],
        "passes": len(untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "uncalibrated_wall_s": _median_pass(untraced, "wall_s"),
        "uncalibrated_cpu_s": _median_pass(untraced, "cpu_s"),
        "job_calibration_s": statistics.median(
            job["calibration_s"] for p in untraced for job in p["jobs"]
        ),
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_samples": setup,
        "jobs_per_pass": sum(len(job["commands"]) for job in jobs),
        "optimize_infeasible_share": {
            "designed": designed_infeasible_share(jobs),
            "observed": _observed_infeasible_share(untraced[0]),
        },
        "validate_rows_outside_3se": sum(job.get("validate_rows_outside_3se", 0) for job in records),
        **_compare_tables(workload, seed, records),
        "failing_jobs": [
            {k: job[k] for k in ("scenario", "command", "exit", "problems")} for job in failing
        ],
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
