"""homcx benchmark: one workload, closed loop, every answer checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; homcx is imported from ``src/``.
One single-threaded process runs one caller in a closed loop: each pass
starts when the previous one has finished, and passes start until
``--seconds`` have gone by (at least one always runs).  Every answer of
every pass is compared with ``expected.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of start-up, ``import homcx`` and input building),
``run_s`` (median pass wall time) and ``peak_rss_mb`` (this process).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer self times and counters, with the tracing overhead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# homcx is always the checkout's own sources, never an installed copy.
if not (SRC / "homcx" / "__init__.py").is_file():
    raise SystemExit(f"error: no homcx sources under {SRC}")
sys.path.insert(0, str(SRC))
import homcx  # noqa: E402

if Path(homcx.__file__).resolve().parent != SRC / "homcx":
    raise SystemExit(f"error: imported homcx from {homcx.__file__}, not {SRC}")

from spans import (  # noqa: E402
    CHECK_SPAN, COUNTERS, PASS_SPAN, SELF_METRIC, Recorder, install, self_times, uninstall,
)
from workloads import WORKLOADS, build_inputs, job_keys, run_job  # noqa: E402

SETUP_RUNS = 9
# Whole-run budget: a stuck pass is cut so the run still ends in time.
RUN_DEADLINE_S = 170.0
SETUP_LIMIT_S = 30.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4])); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class PassTimeout(Exception):
    """The wall-clock guard of a pass or a set-up ran out."""


def _alarm(signum, frame):
    raise PassTimeout()


@contextlib.contextmanager
def guard(seconds: float):
    """Raise PassTimeout in the body once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from launching a fresh interpreter to its 'ready' line,
    SETUP_RUNS times after one unmeasured launch that fills the bytecode
    cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                with guard(SETUP_LIMIT_S):
                    line = child.stdout.readline()
                    elapsed = time.perf_counter() - t0
                    child.stdout.read()
                    code = child.wait()
            except PassTimeout:
                child.kill()
                child.wait()
                raise
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up child exited with code {code}")
        if i:
            times.append(elapsed)
    return times


@dataclass
class Pass:
    traced: bool
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    answers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, keys, why: str) -> None:
        self.attempted += len(keys)
        self.failed += len(keys)
        self.errors.append(f"{', '.join(keys)}: {why}")


def run_pass(jobs, expected: dict, limit: float, rec=None) -> Pass:
    """One pass over every job, each answer checked; a job that raises or
    a pass that outlives ``limit`` counts its unanswered checks failed."""
    p = Pass(traced=rec is not None)
    pending = list(jobs)
    t0 = time.perf_counter()
    root = rec.open(PASS_SPAN) if rec else None
    try:
        with guard(limit):
            while pending:
                job = pending[0]
                keys = job_keys(job)
                try:
                    got = run_job(job)
                except PassTimeout:
                    raise
                except Exception as exc:  # a crashing check is counted, not fatal
                    pending.pop(0)
                    p.fail(keys, f"{type(exc).__name__}: {exc}")
                    continue
                span = rec.open(CHECK_SPAN) if rec else None
                for key in keys:
                    p.attempted += 1
                    if key not in got or got[key] != expected.get(key):
                        p.failed += 1
                        p.errors.append(f"{key}: answer differs from expected.json")
                extra = sorted(set(got) - set(keys))
                if extra:
                    p.fail(extra, "unexpected check")
                p.answers.update(got)
                if rec:
                    rec.close(span)
                pending.pop(0)
    except PassTimeout:
        rest = [k for job in pending for k in job_keys(job)]
        p.fail(rest, f"pass exceeded its {limit:.0f} s guard")
        if rec:
            rec.unwind_to(root)
    finally:
        if rec:
            rec.close(root)
    p.seconds = time.perf_counter() - t0
    return p


def closed_loop(workload, jobs, expected, seconds: int, trace: bool, deadline: float):
    """Passes back to back until ``seconds`` have elapsed.  With tracing,
    untraced and traced passes alternate, starting untraced."""
    rec = Recorder() if trace else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        limit = min(workload.pass_limit_s, remaining)
        traced = trace and len(passes) % 2 == 1
        if traced:
            rec.begin_pass(len(passes))
            undo = install(rec)
            try:
                passes.append(run_pass(jobs, expected, limit, rec))
            finally:
                uninstall(undo)
        else:
            passes.append(run_pass(jobs, expected, limit))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(passes) >= 2):
            break
    return passes, rec


def count_cross_checks(workload, rec, passes) -> list[str]:
    """Traced counters repeat exactly across traced passes and equal the
    matching artifacts of the untraced reports."""
    traced_ids = [i for i, p in enumerate(passes) if p.traced]
    problems = []
    first = rec.counts[traced_ids[0]]
    differ = [pid for pid in traced_ids[1:] if rec.counts[pid] != first]
    if differ:
        problems.append(f"counters of passes {differ} differ from pass {traced_ids[0]}")
    untraced = next(p for p in passes if not p.traced)
    for counter, suite, artifact in workload.count_checks:
        reported = sum(
            a["report"]["artifacts"].get(artifact, 0)
            for k, a in untraced.answers.items()
            if k.startswith(suite + "/")
        )
        if first.get(counter, 0) != reported:
            problems.append(
                f"{counter} = {first.get(counter, 0)} but {suite} reports {artifact} = {reported}"
            )
    return problems


def layer_metrics(rec, passes) -> tuple[dict, list[str]]:
    """Median per-layer self times over the traced passes, the counters
    of one traced pass, and the trace overhead."""
    traced_ids = [i for i, p in enumerate(passes) if p.traced]
    own = self_times(rec.spans)
    per_pass = {pid: dict.fromkeys(SELF_METRIC.values(), 0.0) for pid in traced_ids}
    pass_s = {}
    for s in rec.spans:
        per_pass[s.pass_id][SELF_METRIC[s.name]] += own[s.span_id]
        if s.name == PASS_SPAN:
            pass_s[s.pass_id] = s.end - s.start
    problems = []
    for pid in traced_ids:
        total = sum(per_pass[pid].values())
        if abs(total - pass_s[pid]) > 1e-6:
            problems.append(f"pass {pid}: self times sum to {total} s, pass took {pass_s[pid]} s")
    metrics = {
        m: statistics.median(per_pass[pid][m] for pid in traced_ids)
        for m in sorted(set(SELF_METRIC.values()))
    }
    counts = rec.counts[traced_ids[0]]
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    n_in = metrics["collapse.greedy_in"]
    metrics["collapse.removed_ratio"] = (n_in - metrics["collapse.survivors"]) / n_in if n_in else 0.0
    metrics["trace.pass_s"] = statistics.median(pass_s.values())
    untraced = statistics.median(p.seconds for p in passes if not p.traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced
    metrics["trace.passes"] = len(traced_ids)
    return metrics, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def declared_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def checked_metrics(values: dict, units: dict, trace: bool) -> dict:
    """Every metric carries the name and unit BENCHMARK.json declares, and
    every declared metric is present."""
    declared = declared_units(trace)
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(declared))} are not declared in BENCHMARK.json"
            " or not measured"
        )
    for name, unit in units.items():
        if declared[name] != unit:
            raise RuntimeError(f"{name}: unit {unit} but BENCHMARK.json says {declared[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def print_layers(metrics: dict, untraced: int) -> None:
    modules = ("graphs", "hom", "simplicial", "collapse", "homology", "nerve",
               "verify", "cli", "bench")
    total = metrics["trace.pass_s"]
    own_total = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    print(
        f"  traced pass {total:.4f} s (median of {metrics['trace.passes']}), self times sum to "
        f"{own_total:.4f} s; overhead {metrics['trace.overhead_s']:+.4f} s against "
        f"{untraced} untraced passes"
    )
    for mod in modules:
        own = sum(v for k, v in metrics.items() if k.startswith(mod + ".") and k.endswith("_s"))
        share = own / total if total else 0.0
        print(f"  {mod:<11} self {own:10.4f} s  {100 * share:5.1f}% of the traced pass")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    trace = bool(args.trace)

    workload = WORKLOADS[args.workload]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[workload.name]
    setup = [] if trace else measure_setup(workload.name, args.seed)
    jobs = build_inputs(workload.name, args.seed)
    passes, rec = closed_loop(workload, jobs, expected, args.seconds, trace, deadline)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [e for p in passes for e in p.errors]
    traced = sum(p.traced for p in passes)
    if trace and not 0 < traced < len(passes):
        print("error: the run ended before both an untraced and a traced pass", file=sys.stderr)
        return 1
    if trace:
        values, trace_problems = layer_metrics(rec, passes)
        trace_problems += count_cross_checks(workload, rec, passes)
        # checks of their own: self times add up (per traced pass), counters
        # repeat, and each counter matches its artifact
        attempted += traced + 1 + len(workload.count_checks)
        failed += len(trace_problems)
        problems += trace_problems
        units = {name: layer_unit(name) for name in values}
        (HERE / "out").mkdir(exist_ok=True)
        rec.dump(str(HERE / "out" / f"trace-{workload.name}-{args.seed}.jsonl"))
    print(
        f"{workload.name} seed={args.seed}: {len(passes)} passes, {attempted} checks, "
        f"{failed} failed (fail_ratio {failed}/{attempted} = {failed / attempted:g})"
    )
    if trace:
        print_layers(values, len(passes) - traced)
    else:
        run_times = [p.seconds for p in passes if not p.failed]
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(run_times or [p.seconds for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(setup)} set-ups")
        print(f"  run_s        {values['run_s']:.4f} s   median of {len(run_times)} passes")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB   one process, this workload alone")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = checked_metrics(values, units, trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
