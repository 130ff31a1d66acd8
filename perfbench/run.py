"""bergspace benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner starts one child process at a
time (no threads) and repeats the workload's job list in rounds for about
S seconds; every job's output is checked after the timed loop.

--trace 0 prints the end-to-end metrics: setup_s (median fresh-interpreter
``import bergspace.cli``, two samples before each round), run_s and cpu_s
(medians per round), per-job latency_p50_s / latency_p90_s, and
peak_rss_mb. --trace 1 alternates
untraced and traced rounds and prints the per-layer metrics: total_s,
self_s and calls per wrapped function, exact work counts, checker counts,
fail_rate and the tracing overhead. The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; a human-readable table
goes to stderr. Spans are written to .perfbench/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Job, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_PER_ROUND = 2
JOB_TIMEOUT_S = 150.0  # a run must end within 180 s, checks included

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}
CHECK_COUNTS = (
    "fta.wrong_certificates",
    "fta.near_zero_witnesses",
    "fta.r0_inner_cell_beyond_roots",
)
WORK_COUNTS = (
    "cli.output_bytes",
    "primes.rough_numbers.items",
    "rational.sum_fractions.terms",
    "rational.result_den_bits_max",
    "series.norm_sq.terms",
    "decomposition.blocks",
    "fta.grid_nodes",
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for target in tracer.TARGETS:
        units.update(
            {f"{target}.total_s": "s", f"{target}.self_s": "s", f"{target}.calls": "count"}
        )
    units.update({name: "count" for name in WORK_COUNTS + CHECK_COUNTS})
    units.update({"rational.result_den_bits_max": "bits", "cli.output_bytes": "bytes"})
    units.update({"fail_rate": "ratio", "trace.run_s": "s", "trace.overhead_s": "s"})
    return units


class JobRun:
    """What one job did: exit code, wall and CPU seconds, peak RSS, output."""

    def __init__(self, job: Job, rc: int, wall: float, cpu: float, rss_mb: float, output):
        self.job, self.rc, self.wall, self.cpu, self.rss_mb, self.output = (
            job, rc, wall, cpu, rss_mb, output)


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.jobs: list[JobRun] = []
        self.layers: dict[str, list[float]] = {}  # name -> [total_s, self_s, calls]
        self.counts: Counter = Counter()
        self.import_s: list[float] = []
        self.pending = None  # a library worker's results, read by collect()
        self.spans: list[dict] = []  # raw spans of each traced process

    @property
    def run_s(self) -> float:
        return sum(j.wall for j in self.jobs)

    def add_spans(self, data: dict, job: int | None = None) -> None:
        """Fold one traced process's spans and counts into the round; for a
        CLI job ``job`` is its index, a worker's spans carry their own."""
        self.spans.append({"job": job, "spans": data["spans"]})
        for name, row in tracer.span_totals(data["spans"]).items():
            acc = self.layers.setdefault(name, [0.0, 0.0, 0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in data["counts"].items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        if "import_s" in data:
            self.import_s.append(data["import_s"])


class Runner:
    """Starts children one at a time with os.posix_spawn and reaps them with
    os.wait4, which returns each child's own CPU time and peak RSS."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("BERGSPACE_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self._pid = 0
        signal.signal(signal.SIGALRM, self._kill_child)

    def _kill_child(self, signum, frame) -> None:
        try:
            os.kill(self._pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def spawn(self, args: list[str]) -> tuple[int, float, float, float, bytes]:
        """Run ``python ARGS``; returns (rc, wall_s, cpu_s, rss_mb, stdout)."""
        out, err = self.work / "stdout", self.work / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        started = time.perf_counter()
        self._pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                   file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(self._pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - started
        rc = os.waitstatus_to_exitcode(status)
        return rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out.read_bytes()

    def stderr_tail(self) -> str:
        return (self.work / "stderr").read_text(errors="replace")[-2000:]


def run_round(runner: Runner, workload: Workload, jobs: list[Job], traced: bool,
              index: int) -> Round:
    rnd = Round(traced)
    spans = runner.work / "spans.json"
    if workload.runs_cli:
        for job in jobs:
            spans.unlink(missing_ok=True)
            if traced:
                args = [str(HERE / "child.py"), "cli", str(spans), *job.args]
            else:
                args = ["-m", "bergspace.cli", *job.args]
            rc, wall, cpu, rss, stdout = runner.spawn(args)
            if traced and rc == tracer.TRACER_EXIT:
                raise tracer.TracerError(runner.stderr_tail())
            rnd.jobs.append(JobRun(job, rc, wall, cpu, rss, stdout))
            if traced:
                rnd.counts["cli.output_bytes"] += len(stdout)
                if spans.exists():
                    rnd.add_spans(json.loads(spans.read_text()), len(rnd.jobs) - 1)
        return rnd

    jobs_path, out_path = runner.work / "jobs.json", runner.work / f"results-{index}.json"
    jobs_path.write_text(json.dumps([[job.kind, job.args] for job in jobs]))
    spans.unlink(missing_ok=True)
    args = [str(HERE / "child.py"), "lib", str(jobs_path), str(out_path)]
    rc, _, _, rss, _ = runner.spawn(args + ([str(spans)] if traced else []))
    if traced and rc == tracer.TRACER_EXIT:
        raise tracer.TracerError(runner.stderr_tail())
    if rc != 0:
        print(f"worker exited {rc}: {runner.stderr_tail()}", file=sys.stderr)
    rnd.pending = (jobs, rc, rss, out_path)
    if traced and spans.exists():
        rnd.add_spans(json.loads(spans.read_text()))
    return rnd


def collect(rnd: Round) -> None:
    """Read a worker's results once the timed loop is over. The runner's
    memory must stay flat while it measures: a child's ru_maxrss also covers
    the runner's peak at the time it was spawned."""
    if rnd.pending is None:
        return
    jobs, rc, rss, path = rnd.pending
    results = json.loads(path.read_text()) if rc == 0 and path.exists() else []
    path.unlink(missing_ok=True)
    for i, job in enumerate(jobs):
        if i < len(results):
            res = results[i]
            rnd.jobs.append(JobRun(job, 0, res["wall"], res["cpu"], rss, res["summary"]))
        else:  # the worker died before this job: a failed job with no time
            rnd.jobs.append(JobRun(job, rc, 0.0, 0.0, rss, None))
    rnd.pending = None


def check_job(checker: checks.Checker, done: JobRun) -> list[str]:
    try:
        if done.job.kind == "cli":
            return checker.check_cli(done.job, done.rc, done.output)
        if done.output is None:
            return [f"worker exited {done.rc} before this job"]
        return checker.check_lib(done.job, done.output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_round(checker: checks.Checker, rnd: Round, verdicts: dict) -> int:
    """Check every job of the round; returns how many failed. Rounds repeat
    the same inputs, so a verdict is reused for an identical job and output."""
    checker.counts = Counter()
    failed = 0
    for done in rnd.jobs:
        output = done.output if isinstance(done.output, bytes) else json.dumps(done.output)
        key = (json.dumps([done.job.kind, done.job.args, done.job.expect_rc]), done.rc, output)
        if key not in verdicts:
            before = Counter(checker.counts)
            verdicts[key] = check_job(checker, done), checker.counts - before
        else:
            checker.counts.update(verdicts[key][1])
        problems = verdicts[key][0]
        if problems:
            failed += 1
            print(f"FAILED {done.job.kind} {' '.join(map(str, done.job.args))[:120]}: "
                  f"{problems[0][:300]}", file=sys.stderr)
    rnd.counts.update(checker.counts)
    return failed


def time_setup(runner: Runner, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing bergspace.cli."""
    times = []
    for _ in range(samples):
        rc, wall, *_ = runner.spawn(["-c", "import bergspace.cli"])
        if rc != 0:
            raise SystemExit(f"cannot import bergspace.cli: {runner.stderr_tail()}")
        times.append(wall)
    return times


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(rounds: list[Round], setup_times: list[float]) -> tuple[dict, int]:
    latencies = [j.wall for r in rounds for j in r.jobs]
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r.run_s for r in rounds),
        "cpu_s": statistics.median(sum(j.cpu for j in r.jobs) for r in rounds),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": max(j.rss_mb for r in rounds for j in r.jobs),
    }
    return values, len(latencies)


def per_layer(workload: Workload, rounds: list[Round], attempted: int, failed: int) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    first = traced[0]
    values: dict[str, float] = {}
    for target in tracer.TARGETS:
        rows = [r.layers.get(target, [0.0, 0.0, 0]) for r in traced]
        values[f"{target}.total_s"] = statistics.median(row[0] for row in rows)
        values[f"{target}.self_s"] = statistics.median(row[1] for row in rows)
        values[f"{target}.calls"] = first.layers.get(target, [0, 0, 0])[2]
    for name in WORK_COUNTS + CHECK_COUNTS:
        values[name] = first.counts[name]
    values["cli.import_s"] = statistics.median(first.import_s) if first.import_s else 0.0
    values["fail_rate"] = failed / attempted
    values["trace.run_s"] = statistics.median(r.run_s for r in traced)
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(r.run_s for r in plain)
    # Tracer guard: every layer the workload claims must have recorded spans.
    for layer in workload.layers:
        if not any(first.layers.get(t, [0, 0, 0])[2] for t in tracer.TARGETS
                   if t.startswith(layer + ".")):
            raise tracer.TracerError(f"layer {layer!r} recorded no spans on {workload.name}")
    return values


def write_spans(path: Path, rounds: list[Round]) -> None:
    """One JSON line per traced process: its round, job and raw spans
    [name, start, end, parent index, job]."""
    with path.open("w") as fh:
        for index, rnd in enumerate(rounds):
            for entry in rnd.spans:
                fh.write(json.dumps({"round": index, **entry}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bergspace" / "cli.py").is_file():
        print(f"error: no bergspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.set_int_max_str_digits(0)  # library results carry huge exact integers
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    started = time.monotonic()
    runner = Runner(work, started + JOB_TIMEOUT_S)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    # Set-up samples are spread over the run, a few before every round, so
    # that one busy second on the machine cannot skew them all.
    time_setup(runner, 1)  # discarded: compiles the bytecode cache
    setup_times: list[float] = []
    rounds: list[Round] = []
    loop_start = time.monotonic()
    min_rounds = max(workload.min_rounds, 2 if trace else 1)
    try:
        while True:
            if not trace:
                setup_times += time_setup(runner, SETUP_SAMPLES_PER_ROUND)
            traced = trace and len(rounds) % 2 == 1
            jobs = workload.jobs(args.seed, len(rounds))
            rounds.append(run_round(runner, workload, jobs, traced, len(rounds)))
            # stop once half an average round more would pass --seconds
            elapsed = time.monotonic() - loop_start
            per_round = elapsed / len(rounds)
            if len(rounds) >= min_rounds and elapsed + per_round / 2 >= args.seconds:
                break
            if time.monotonic() - started > JOB_TIMEOUT_S:
                break
        runner_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for rnd in rounds:
            collect(rnd)
        checker = checks.Checker()
        verdicts: dict = {}
        failed = sum(check_round(checker, rnd, verdicts) for rnd in rounds)
        attempted = sum(len(r.jobs) for r in rounds)
        if trace:
            values = per_layer(workload, rounds, attempted, failed)
    except tracer.TracerError as exc:
        print(f"error: tracer: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in work.iterdir():
            if not path.name.startswith("trace-"):
                path.unlink()

    if trace:
        units = per_layer_units()
        write_spans(work / f"trace-{workload.name}.jsonl", rounds)
        samples = ""
    else:
        values, n = end_to_end(rounds, setup_times)
        units = END_TO_END_UNITS
        samples = (f" ({n} job samples over {len(rounds)} rounds; runner peak RSS "
                   f"{runner_rss_mb:.1f} MB while measuring)")
    print(f"{workload.name} seed={args.seed} trace={args.trace}{samples}", file=sys.stderr)
    print("  round run_s: " + " ".join(f"{r.run_s:.3f}{'t' if r.traced else ''}" for r in rounds),
          file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:52s} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"  {failed} of {attempted} jobs failed (fail_rate {failed / attempted:.6g})",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
