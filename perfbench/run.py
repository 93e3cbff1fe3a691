"""End-to-end benchmark of the streaming engine.

    python3 perfbench/run.py --workload yahoo_closed --seed 1 --seconds 20 --trace 0

Runs one workload (``yahoo_closed``, ``yahoo_open`` or ``keyed_windows``)
in a fresh child process on the engine's default configuration, prints
every metric with its unit, the output checks and their context, and as
its last line one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with spans around every layer's entry
points, and reports the per-layer metrics of the traced run together
with ``trace.overhead_pct``, the extra CPU per row the tracing cost.

``--repeat K`` runs the workload K times with seeds seed..seed+K-1 and
prints each metric's median, quartiles and spread (quartile distance
over median), so steadiness can be shown and a comparison between two
commits can call a metric unresolved when its spread exceeds its bound.

The engine is imported from ``src/`` of the checkout this file lives in;
without it the command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("yahoo_closed", "yahoo_open", "keyed_windows")
#: A run (two child processes when traced) must end within 180 s.
RUN_BUDGET_S = 175


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run K times with consecutive seeds and "
                             "print medians and quartiles")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload run in this process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(
            workloads.work_root(),
            f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()},
        "layers": {k: {"value": v, "unit": u}
                   for k, (v, u) in result.layers.items()},
        "errors": result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "notes": result.notes,
    }))
    return 0


def run_child(args, trace: int, seed: int, deadline: float) -> dict:
    """Run one workload in a fresh interpreter on the default engine
    configuration: no REPRO_* switches, fixed string hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"{args.workload} (seed {seed}, trace {trace}) exited with "
            f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_run(args, seed: int) -> dict:
    """Run the workload once (twice when traced); returns the report."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_child(args, 0, seed, deadline)
    report = {
        "correct": not plain["errors"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "errors": plain["errors"],
        "notes": plain["notes"],
        "metrics": plain["metrics"],
    }
    if args.trace:
        traced = run_child(args, 1, seed, deadline)
        # Tracing costs CPU; CPU per row shows it in every workload, the
        # open loop included, where the offered rate sets throughput.
        base = plain["metrics"]["cpu_us_per_row"]["value"]
        traced_cpu = traced["metrics"]["cpu_us_per_row"]["value"]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_cpu - base) / base, "unit": "%"}
        report.update(
            correct=report["correct"] and not traced["errors"],
            errors=plain["errors"] + traced["errors"],
            notes=traced["notes"],
            metrics=metrics,
            # The traced run attempts the same operations as the plain one.
            attempted=traced["attempted"], failed=traced["failed"])
    return report


def print_report(workload: str, seed: int, report: dict) -> None:
    print(f"# {workload} seed={seed}")
    for name, m in report["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in report["notes"].items():
        print(f"  {name}: {value:.6g}" if isinstance(value, float)
              else f"  {name}: {value}")
    print(f"  checks: {'ok' if report['correct'] else 'FAILED'}; "
          f"operations attempted={report['attempted']} failed={report['failed']}")
    for error in report["errors"]:
        print(f"  check failed: {error}")


def summarize(reports: list) -> dict:
    """Median, quartiles and spread of each metric over the runs."""
    summary = {}
    for name, m in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "unit": m["unit"],
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no engine sources at {SRC}/repro\n")
        return 2
    if args.seconds <= 0 or args.repeat < 1:
        sys.stderr.write("perfbench: --seconds and --repeat must be positive\n")
        return 2
    reports = []
    for seed in range(args.seed, args.seed + args.repeat):
        report = one_run(args, seed)
        print_report(args.workload, seed, report)
        reports.append(report)
        sys.stdout.flush()
    if args.repeat > 1:
        summary = summarize(reports)
        print(f"# {args.workload}: {args.repeat} runs, seeds "
              f"{args.seed}..{args.seed + args.repeat - 1}")
        for name, s in summary.items():
            print(f"{name:40s} median {s['median']:>12.6g}  "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  "
                  f"spread {100 * s['spread']:6.2f}%  {s['unit']}")
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "summary": summary,
        }))
        return 0
    report = reports[0]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
