"""Per-job wall times of the decompose workload, and the jobs its percentiles read.

    python3 tools/job_times.py [--tree DIR] [--seed N]

Run from the repository root. Starts 20 fresh ``perfbench/child.py lib``
workers one after another, worker i on the job list of the workload's
round i for ``--seed``, as ``perfbench/run.py`` builds it. Prints each
job's median and max wall time over the workers, then the workload's
latency_p50_s and latency_p90_s over all those samples
(the same interpolation as ``perfbench/run.py``) and the job or jobs each
of the two reads. A percentile of a job mix moves only with the jobs near
it, so this shows which job a latency claim rests on before it is made.

``--tree`` runs another checkout's ``perfbench/`` and ``src/``, such as a
``git archive`` of the parent commit; nothing under it is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "decompose"
WORKERS = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose perfbench/ and src/ run (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # the workers' summaries carry huge exact integers
    bench = args.tree.resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    from run import quantile
    from workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    env = {**os.environ, "PYTHONPATH": str(bench.parent / "src")}
    samples: list[tuple[float, str]] = []  # (wall seconds, job)
    with tempfile.TemporaryDirectory() as tmp:
        jobs_path, out_path = Path(tmp, "jobs.json"), Path(tmp, "results.json")
        for index in range(WORKERS):
            jobs = workload.jobs(args.seed, index)
            jobs_path.write_text(json.dumps([[job.kind, job.args] for job in jobs]))
            subprocess.run([sys.executable, str(bench / "child.py"), "lib", str(jobs_path),
                            str(out_path)], env=env, check=True)
            for job, result in zip(jobs, json.loads(out_path.read_text())):
                label = f"{job.kind} {tuple(job.args)}"
                if "error" in result["summary"]:
                    raise SystemExit(f"{label} failed: {result['summary']['error']}")
                samples.append((result["wall"], label))

    walls: dict[str, list[float]] = {}
    for wall, label in samples:
        walls.setdefault(label, []).append(wall)
    print(f"{WORKLOAD} seed {args.seed}, {WORKERS} fresh workers, "
          f"{len(samples)} samples")
    print(f"{'job':<28} {'median ms':>10} {'max ms':>10}")
    for label, times in sorted(walls.items(), key=lambda item: statistics.median(item[1])):
        print(f"{label:<28} {statistics.median(times) * 1e3:>10.2f} {max(times) * 1e3:>10.2f}")
    ordered = sorted(samples)
    for q in (0.5, 0.9):
        # quantile interpolates between the samples at these two ranks
        lo = int(q * (len(ordered) - 1))
        read = {ordered[lo][1], ordered[min(lo + 1, len(ordered) - 1)][1]}
        value = quantile([wall for wall, _ in ordered], q)
        print(f"latency_p{round(q * 100)}_s {value * 1e3:.2f} ms reads {' and '.join(sorted(read))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
