"""Per-job wall times of the decompose workload, and the jobs its percentiles read.

    python3 tools/job_times.py [--tree DIR] [--against DIR] [--seed N]

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
``--against`` names a second checkout and alternates the two worker by
worker, each round's first worker taking turns, so a slow phase of the
host falls on both alike. It prints each job's median for both trees side
by side, then both trees' percentiles and the jobs they read.
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


def run_worker(tree: Path, jobs, tmp: str) -> list[tuple[float, str]]:
    """(wall seconds, job) for each job, run by one fresh worker of ``tree``."""
    bench = tree / "perfbench"
    jobs_path, out_path = Path(tmp, "jobs.json"), Path(tmp, "results.json")
    jobs_path.write_text(json.dumps([[job.kind, job.args] for job in jobs]))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(bench / "child.py"), "lib", str(jobs_path),
                    str(out_path)], env=env, check=True)
    samples = []
    for job, result in zip(jobs, json.loads(out_path.read_text())):
        label = f"{job.kind} {tuple(job.args)}"
        if "error" in result["summary"]:
            raise SystemExit(f"{tree}: {label} failed: {result['summary']['error']}")
        samples.append((result["wall"], label))
    return samples


def percentiles(samples: list[tuple[float, str]], quantile) -> list[str]:
    """latency_p50_s and latency_p90_s of ``samples``, each with the jobs it reads."""
    ordered = sorted(samples)
    lines = []
    for q in (0.5, 0.9):
        # quantile interpolates between the samples at these two ranks
        lo = int(q * (len(ordered) - 1))
        read = {ordered[lo][1], ordered[min(lo + 1, len(ordered) - 1)][1]}
        value = quantile([wall for wall, _ in ordered], q)
        lines.append(f"latency_p{round(q * 100)}_s {value * 1e3:.2f} ms "
                     f"reads {' and '.join(sorted(read))}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose perfbench/ and src/ run (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="second checkout, run alternately with --tree")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # the workers' summaries carry huge exact integers
    trees = [args.tree.resolve()]
    if args.against is not None:
        trees.append(args.against.resolve())
    sys.path.insert(0, str(trees[0] / "perfbench"))
    from run import quantile
    from workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    samples: dict[Path, list[tuple[float, str]]] = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(WORKERS):
            jobs = workload.jobs(args.seed, index)
            for tree in trees[index % 2 :] + trees[: index % 2]:
                samples[tree] += run_worker(tree, jobs, tmp)

    walls: dict[str, list[list[float]]] = {}
    for column, tree in enumerate(trees):
        for wall, label in samples[tree]:
            walls.setdefault(label, [[] for _ in trees])[column].append(wall)
    print(f"{WORKLOAD} seed {args.seed}, {WORKERS} fresh workers per tree, "
          f"{len(samples[trees[0]])} samples per tree")
    for column, tree in enumerate(trees):
        print(f"tree {column + 1}: {tree}")
    if len(trees) == 1:
        print(f"{'job':<28} {'median ms':>10} {'max ms':>10}")
        rows = sorted(walls.items(), key=lambda item: statistics.median(item[1][0]))
        for label, (times,) in rows:
            print(f"{label:<28} {statistics.median(times) * 1e3:>10.2f} "
                  f"{max(times) * 1e3:>10.2f}")
    else:
        print(f"{'job':<28} {'tree 1 ms':>10} {'tree 2 ms':>10} {'change':>8}")
        rows = sorted(walls.items(), key=lambda item: statistics.median(item[1][0]))
        for label, (first, second) in rows:
            a, b = statistics.median(first), statistics.median(second)
            print(f"{label:<28} {a * 1e3:>10.2f} {b * 1e3:>10.2f} {(b / a - 1) * 100:>+7.1f}%")
    for column, tree in enumerate(trees):
        prefix = f"tree {column + 1} " if len(trees) > 1 else ""
        for line in percentiles(samples[tree], quantile):
            print(prefix + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
