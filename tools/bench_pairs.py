"""Paired parent/change runs of the benchmark, recorded as one BENCH file.

    python3 tools/bench_pairs.py --parent REV [--change REV] --pairs N \
        --seeds 1,2,3 --out BENCH_<n>.json

Run from the repository root. The workloads and the length of each run
are the ones ``BENCHMARK.json`` declares. Both revisions are exported with
``git archive`` into fresh temporary directories, so each side runs its
own committed ``perfbench/`` against its own ``src/``. Each pair runs
``perfbench/run.py --trace 0`` once per side, alternating which side goes
first; pair i uses seed ``seeds[i % len(seeds)]``. The output holds, per
workload and end-to-end metric, each side's median and quartiles, the
change's wins (ties count for neither side), every pair's values, and a
note on the host the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run; returns its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolating between closest ranks."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": p,
            "change": c,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(change, parent)),
            "parent_wins": sum(sign * (a - b) > 0 for a, b in zip(change, parent)),
            "median_gap": p["median"] - c["median"],
            "parent_iqr": p["q3"] - p["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = [int(s) for s in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]

    record = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            # a host that already caps BLAS threads shows no gain from the
            # CLI capping them itself
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side].mkdir()
            record[side] = export(rev, trees[side])
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed, seconds)
                runs.append(run)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: run_s "
                      f"parent {run['parent']['metrics']['run_s']['value']:.3f} "
                      f"change {run['change']['metrics']['run_s']['value']:.3f}",
                      file=sys.stderr)
            record["workloads"][workload] = {
                "metrics": summarise(runs, metrics),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in trees},
                "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in trees},
                "runs": [
                    {"seed": r["seed"], "first": r["first"],
                     **{side: {k: v["value"] for k, v in r[side]["metrics"].items()}
                        for side in trees}}
                    for r in runs
                ],
            }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
