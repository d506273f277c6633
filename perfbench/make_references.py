"""Regenerate reference_digests.json: table SHA-256s for seeds 0-31 of every workload.

    python3 perfbench/make_references.py

Run it only when a change alters emitted tables on purpose, and say why in
the change's notes. Each seed runs in a fresh child with the benchmark's
environment, two children at a time.
"""

from __future__ import annotations

import json
import shutil
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCES, ROOT, _job_key, prepare, run_child
from workloads import WORKLOADS

SEEDS = range(32)


def _digests(workload: str, seed: int) -> dict[str, str]:
    work = ROOT / ".perfbench-work" / "references" / f"{workload}-{seed}"
    _, jobs_path = prepare(workload, seed, work)
    child = run_child(jobs_path, "--seconds", "0")
    shutil.rmtree(work)
    out = {}
    for job in child["untraced"][0]["jobs"]:
        if job["problems"]:
            raise SystemExit(f"{workload} seed {seed}: {job['command']} failed: {job['problems']}")
        for table, digest in job["digests"].items():
            out[_job_key(workload, seed, job, table)] = digest
    return out


def main() -> None:
    runs = [(w, s) for w in WORKLOADS for s in SEEDS]
    digests: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for part in pool.map(lambda ws: _digests(*ws), runs):
            digests.update(part)
    REFERENCES.write_text(json.dumps(
        {"seeds": [SEEDS.start, SEEDS.stop - 1], "digests": dict(sorted(digests.items()))},
        indent=1,
    ) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCES}")


if __name__ == "__main__":
    main()
