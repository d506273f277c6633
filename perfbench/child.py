"""One measured workload run in a fresh process.

Set-up is timed from the first line of this file, before jrcsim is imported,
until every scenario of the run is parsed and validated. After set-up the
child runs passes over the run's jobs, one CLI command at a time through
``jrcsim.cli.main``, until the time budget is spent, and prints one JSON
object. With ``--trace 1`` every untraced pass is followed by a traced pass
over the same jobs. The first scenario's jobs run once untimed first, to
warm caches and lazy imports; they are still checked. Each untraced job is
bracketed by calibration runs (see calibration.py). With ``--setup-only``
it stops after set-up.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import jrcsim  # noqa: E402
from jrcsim import cli  # noqa: E402
from jrcsim.scenario import load_scenario  # noqa: E402

from calibration import calibration_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CALIBRATION, check_job, table_digests, validate_rows_outside_3se  # noqa: E402


def _run_job(job: dict, command: str, allowed: list[int], tracer: Tracer | None) -> dict:
    out_dir = os.path.join(job["out_dir"], command)
    argv = [command, "--config", job["config_path"], "--out", out_dir]
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    except Exception:  # a traceback is a failed job, not a failed run
        code = None
        err.write(traceback.format_exc(limit=-3))
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    record = {"command": command, "scenario": job["index"], "wall_s": wall, "cpu_s": cpu, "exit": code}
    if code not in allowed:
        record["problems"] = [f"exit code {code}, expected one of {allowed}: {err.getvalue().strip()}"]
        return record
    with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    record["problems"] = check_job(command, out_dir, job["config_path"], code)
    record["digests"] = table_digests(out_dir, manifest)
    if command == "validate":
        record["validate_rows_outside_3se"] = validate_rows_outside_3se(out_dir)
    return record


def _run_pass(jobs: list[dict], tracer: Tracer | None = None, calibrate: str = "") -> dict:
    """Every job once; with a ``calibrate`` kind, each job carries the mean calibration time around it."""
    records = []
    before = calibration_s(calibrate) if calibrate else None
    for job in jobs:
        for command, allowed in job["commands"]:
            record = _run_job(job, command, allowed, tracer)
            if calibrate:
                after = calibration_s(calibrate)
                record["calibration_s"] = 0.5 * (before + after)
                before = after
            records.append(record)
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "jobs": records,
    }


def _provenance(root: Path) -> dict:
    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jrcsim": jrcsim.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibration", choices=("dispatch", "vectorized"), default="dispatch")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    if not Path(jrcsim.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: jrcsim was imported from {jrcsim.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 1
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    for job in jobs:
        load_scenario(job["config_path"])
    setup_s = time.perf_counter() - SETUP_START
    setup = {"setup_s": setup_s, "calibration_s": calibration_s(CALIBRATION["setup"])}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # first calls pay for lazy imports and cold caches: one untimed scenario first
    warmup = _run_pass(jobs[:1])
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    spans = open(args.spans, "w", encoding="ascii") if args.trace else None
    try:
        while True:
            untraced.append(_run_pass(jobs, calibrate=args.calibration))
            if args.trace:
                tracer = Tracer()
                traced.append(_run_pass(jobs, tracer))
                layers.append(tracer.layer_metrics())
                # kept in memory during the pass, written between passes
                tracer.write_spans(spans, len(traced) - 1)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if spans is not None:
            spans.close()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup": setup,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "provenance": _provenance(root),
    }
    if args.trace:
        names = dict.fromkeys(name for layer in layers for name in layer)
        result["layers"] = {
            name: statistics.median(layer.get(name, 0.0) for layer in layers) for name in names
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
