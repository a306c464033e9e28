"""Benchmark of mottreg's two extraction budgets and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
One client keeps one operation in flight (a closed loop) and cycles through
the workload's operations in whole rounds until S seconds have passed.
Every time is scaled to a reference host speed by a fixed kernel timed
around each operation (see reference.py); the unscaled wall figures are
printed on standard error.
Set-up time is the median of several fresh processes, each timed from its
start until it has imported the package and run one warm-up operation; they
are started between rounds, spread over the run.  After the timed part the
outputs are checked against separate computations and properties (see
checks.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the metrics
are per-layer times and counts per operation, from every second round of the
run, which runs with spans around each layer's functions (see layers.py).
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up is timed in this many fresh processes, spread over the timed run
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_rounds(workload, seconds: float, trace: bool = False, setup=None) -> dict:
    """Whole rounds of the workload's operations for about `seconds`.

    A new round starts while the run would end nearer to `seconds` with it
    than without it, so the measured span is `seconds` give or take half a
    round.  The reference kernel runs before the first operation and after
    each one; an operation's time is scaled by REFERENCE_S over the mean of
    the two kernel times around it (see reference.py).  With `trace`, every
    second round runs with spans around the layer functions, so traced and
    untraced rounds meet the same fast and slow spells of the host.
    `setup`, if given, is called between rounds, outside the timed span, at
    SETUP_PROBES points spread evenly over it, and scaled the same way.
    """
    from layers import Tracer

    tracer = Tracer() if trace else None
    per_position = [[] for _ in workload.ops]
    rounds, failures, setup_times, setup_wall = [], [], [], []
    # [scaled seconds, wall seconds, operations] of the untraced and traced rounds
    spent = {False: [0.0, 0.0, 0], True: [0.0, 0.0, 0]}
    kernels = []
    elapsed = 0.0

    def probes_due():
        while setup is not None and len(setup_times) < SETUP_PROBES and (
                elapsed >= len(setup_times) * seconds / (SETUP_PROBES - 1)):
            before = reference.kernel()
            ready = setup()
            after = reference.kernel()
            setup_wall.append(ready)
            setup_times.append(ready * reference.scale(before, after))

    probes_due()
    while (len(rounds) < max(workload.min_rounds, 2 if trace else 1)
           or elapsed + 0.5 * elapsed / len(rounds) < seconds):
        traced = trace and len(rounds) % 2 == 1
        workload.start_round(len(rounds))
        if traced:
            tracer.install()
            workload.traced = True
        outputs, operations, scaled, wall = [], 0, 0.0, 0.0
        start = time.perf_counter()
        try:
            before = reference.kernel()
            for i, op in enumerate(workload.ops):
                began = time.perf_counter()
                try:
                    output, count = workload.execute(op)
                except Exception as exc:  # a failed operation is reported, not fatal
                    output, count = None, 1
                    failures.append(f"{op!r:.120}: {exc!r:.400}")
                took = time.perf_counter() - began
                wall += took
                after = reference.kernel()
                took *= reference.scale(before, after)
                kernels.append(after)
                before = after
                per_position[i].append(took / count)
                outputs.append(output)
                operations += count
                scaled += took
        finally:
            duration = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                workload.traced = False
        rounds.append(outputs)
        spent[traced][0] += scaled
        spent[traced][1] += wall
        spent[traced][2] += operations
        elapsed += duration
        probes_due()
    elapsed = seconds   # the probes left when the run ends a little early
    probes_due()
    untraced_s, untraced_wall, untraced_ops = spent[False]
    traced_s, _, traced_ops = spent[True]
    return {"rounds": rounds, "failures": failures,
            "operations": untraced_ops + traced_ops,
            "ops_per_s": untraced_ops / untraced_s,
            "wall_ops_per_s": untraced_ops / untraced_wall,
            "reference_ms": 1e3 * statistics.median(kernels),
            # the median operation of the round, each timed by its mean over
            # the rounds: the median picks the middle of a mixed round
            "op_p50_ms": 1e3 * statistics.median(
                statistics.fmean(times) for times in per_position),
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "wall_setup_s": statistics.median(setup_wall) if setup_wall else None,
            "tracer": tracer, "traced_operations": traced_ops,
            "traced_ops_per_s": traced_ops / traced_s if traced_s else None}


def setup_probe(args, workdir: Path) -> float:
    """Wall time from spawning a fresh process until it is ready."""
    probe_dir = Path(tempfile.mkdtemp(prefix="probe", dir=workdir))
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--workdir", str(probe_dir)]
    with open(probe_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=str(ROOT))
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        message = (probe_dir / "stderr").read_text(errors="replace").strip()
        raise RuntimeError(f"set-up probe failed: {message[-500:]}")
    return ready


def benchmark(args, workdir: Path) -> dict:
    import checks
    from layers import layer_metrics, merge
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    workload.warm_up()
    reference.kernel()

    if args.trace:
        run = timed_rounds(workload, args.seconds, trace=True)
        trace = merge([run["tracer"].export()] + [json.loads(path.read_text())
                                                  for path in workload.trace_files
                                                  if path.is_file()])
        metrics = layer_metrics(trace, run["traced_operations"])
        metrics["trace.overhead_ops_per_s"] = {
            "value": run["traced_ops_per_s"] - run["ops_per_s"], "unit": "1/s"}
        metrics["host.wall_ops_per_s"] = {"value": run["wall_ops_per_s"], "unit": "1/s"}
        metrics["host.reference_ms"] = {"value": run["reference_ms"], "unit": "ms"}
    else:
        run = timed_rounds(workload, args.seconds,
                           setup=lambda: setup_probe(args, workdir))
        metrics = {
            "setup_s": {"value": run["setup_s"], "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
        }
        print(f"unscaled wall figures: ops_per_s {run['wall_ops_per_s']:.4g}, "
              f"setup_s {run['wall_setup_s']:.4g}; "
              f"reference kernel median {run['reference_ms']:.4g} ms", file=sys.stderr)

    failures = run["failures"]
    if failures:
        problems = ["operation failed: " + f for f in failures]
    else:
        problems = checks.run(workload.checks(run["rounds"]))
    for line in problems:
        print(line, file=sys.stderr)
    return {"correct": not problems,
            "attempted": run["operations"],
            "failed": len(failures),
            "metrics": metrics}


def probe(args) -> int:
    """Set-up of one process: imports and one warm-up operation."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.prepare()
    workload.warm_up()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mottreg" / "__init__.py").is_file():
        print(f"perfbench: no mottreg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
