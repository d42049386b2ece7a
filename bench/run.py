#!/usr/bin/env python3
"""Benchmark of scatstair's CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload scatter_deep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is ``src/scatstair`` next to this
directory.  One client runs one task at a time (a closed loop), with at most
one CLI child process alive.  ``--trace 0`` measures the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the tasks in-process under the tracer and
reports its per-layer metrics.  Human-readable lines come first; the last line
of stdout is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
NAMED = ("verify_s", "scatter_s", "staircase_range_s", "obstruction_s")


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    task_s: Dict[str, float]
    group_s: Dict[str, float]


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failures.extend(res.failures)


def cpu_now() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


def run_pass(tasks, executor, golden, tally: Tally, tracer=None) -> Pass:
    task_s: Dict[str, float] = {}
    group_s: Dict[str, float] = Counter()
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    for task in tasks:
        start = time.perf_counter()
        if tracer is None:
            res = task.run(executor, golden)
        else:
            with tracer.span(f"bench.{task.name}"):
                res = task.run(executor, golden)
        task_s[task.name] = time.perf_counter() - start
        if task.group:
            group_s[task.group] += task_s[task.name]
        tally.add(res)
    wall = time.perf_counter() - t0
    return Pass(wall, cpu_now() - cpu0, task_s, dict(group_s))


def median_value(values: list):
    """Median; counts repeat exactly across passes and stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def keep_going(started: float, seconds: float, pass_walls: List[float]) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    return time.perf_counter() - started + statistics.median(pass_walls) <= seconds


# ---------------------------------------------------------------------------
# environment record


def git_commit():
    """HEAD of the checkout's own .git, read as files; None outside a clone."""
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


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scatstair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, load_start: float) -> dict:
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(wl_name, args, golden, spec, tally: Tally):
    """Set-up several times, probe tasks once, then timed passes until the budget."""
    executor = workloads.SubprocessExecutor(SRC)
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.build(wl_name, args.seed)
        warm = executor.run(wl.warmup_argv)
        setup.append(time.perf_counter() - start)
        if warm.code != 0:
            raise RuntimeError(f"warm-up {wl.warmup_argv} exited with {warm.code}")
    probe = run_pass(wl.probe, executor, golden, tally)
    probe_counts = {"probe_attempted": tally.attempted, "probe_failed": len(tally.failures)}
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(wl.timed, executor, golden, tally))
        if not keep_going(started, args.seconds, [p.wall_s for p in passes]):
            break
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes), "cpu_s": len(passes), "peak_rss_mib": 1}
    extra = {"setup_samples_s": setup, "pass_walls_s": [p.wall_s for p in passes]}
    for name in NAMED:
        if any(name in p.group_s for p in passes):
            extra[name] = statistics.median(p.group_s.get(name, 0.0) for p in passes)
    if wl.probe:
        extra.update(probe_s=probe.wall_s, **probe_counts)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return metrics, samples, extra, len(passes)


def traced_run(wl_name, args, golden, spec, tally: Tally):
    """CLI tasks once as subprocesses, then pairs of untraced and traced
    in-process passes until the budget; per-layer metrics are medians over
    the traced passes."""
    wl = workloads.build(wl_name, args.seed)
    sub = run_pass(wl.timed, workloads.SubprocessExecutor(SRC), golden, tally)
    inproc = workloads.InProcessExecutor()
    plain: List[Pass] = []
    traced: List[Pass] = []
    summaries = []
    started = time.perf_counter()
    while True:
        plain.append(run_pass(wl.tasks, inproc, golden, tally))
        with tracing.Tracer() as tracer:
            traced.append(run_pass(wl.tasks, inproc, golden, tally, tracer))
        summaries.append(tracing.summarize(tracer))
        pair = [u.wall_s + t.wall_s for u, t in zip(plain, traced)]
        if not keep_going(started, args.seconds, pair):
            break
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl_name}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    keys = set().union(*summaries)
    summary = {k: median_value([s.get(k, 0) for s in summaries]) for k in keys}
    cli_tasks = [t.name for t in wl.timed if isinstance(t, workloads.CliTask)]
    summary["cli.process_overhead_s"] = statistics.mean(
        sub.task_s[n] - statistics.median(p.task_s[n] for p in plain) for n in cli_tasks
    )
    summary["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in plain)
    summary["trace.traced_wall_s"] = statistics.median(p.wall_s for p in traced)
    summary["trace.overhead_s"] = summary["trace.traced_wall_s"] - summary["trace.untraced_wall_s"]
    values = tracing.layer_metrics(summary, spec["per_layer"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    samples = {m["name"]: len(traced) for m in spec["per_layer"]}
    samples["cli.process_overhead_s"] = len(cli_tasks)
    return metrics, samples, {"spans_file": str(spans_path.relative_to(ROOT))}, len(traced)


def run_workload(wl_name: str, args, golden, spec) -> dict:
    load_start = os.getloadavg()[0]
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics, samples, extra, passes = run(wl_name, args, golden, spec, tally)
    failed = len(tally.failures)
    wrong = [f for f in tally.failures if f.kind in workloads.WRONG_KINDS]
    record = environment(args, load_start)
    record.update(
        workload=wl_name,
        passes=passes,
        samples=samples,
        error_rate=failed / tally.attempted,
        failures=dict(Counter(f"{f.task}/{f.kind}" for f in tally.failures)),
        **extra,
    )
    print(f"== {wl_name}  seed {args.seed}  trace {args.trace}  passes {passes} ==")
    print(f"{'metric':44} {'value':>16} {'unit':>6} {'n':>4}")
    for name, m in metrics.items():
        print(f"{name:44} {m['value']:>16.6g} {m['unit']:>6} {samples[name]:>4}")
    for name in NAMED + ("probe_s",):
        if name in extra:
            print(f"{name:44} {extra[name]:>16.6g} {'s':>6} {passes if name != 'probe_s' else 1:>4}")
    print(f"{'error_rate':44} {record['error_rate']:>16.6g} {'ratio':>6} {tally.attempted:>4}")
    if "probe_attempted" in extra:
        print(f"probe: {extra['probe_failed']} of {extra['probe_attempted']} inputs failed")
    for f in tally.failures[:5]:
        print(f"failed: {f.task} {f.kind}: {f.detail[:160]}")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": not wrong, "attempted": tally.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scatstair" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no scatstair source at {SRC} or no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads
    import scatstair
    import workloads

    if Path(scatstair.__file__).resolve().parent != SRC / "scatstair":
        print(f"error: imported scatstair from {scatstair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    for name in names:
        result = run_workload(name, args, golden, spec)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
