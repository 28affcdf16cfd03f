#!/usr/bin/env python3
"""Benchmark for bsdecomp: end-to-end timings per workload, or per-layer spans.

Run from the root of a source checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload stabilize-p5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own single-threaded child process (child.py), one
child at a time. Set-up is timed in the parent, from starting a child to its
``ready`` line, in several probe children; the median is ``setup_s``. Every
job's output is checked against a reference the code under test did not
produce; any mismatch, nonzero exit or exception counts as a failed job.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of BENCHMARK.json with ``--trace 1``. Lines before it give
every figure by name and unit, including those not in BENCHMARK.json. The
exit code is 0 when every output was correct, 1 when some were not, and 2 or
3 when the benchmark could not run (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
REQUIRED = ("src/bsdecomp/__init__.py", "src/bsdecomp/cli.py", "tests/oracles.py", "tests/reference_values.py")
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # a run must end within 180 s

# names and units of the workloads and metrics come from BENCHMARK.json;
# end-to-end metrics are measured with tracing off
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCHMARK["per_layer"])
# printed next to them: seconds as measured, before speed normalization
RAW = (("run_wall_s", "s"), ("run_cpu_s", "s"), ("speed_factor", "ratio"))
# Printed with the per-layer metrics but not in BENCHMARK.json. The first
# seven are zero on a workload that never reaches the layer (the stabilize
# layer on betti-random, say); call counts stand in for them in the JSON
# line, so that every time there is a measurement that varies between runs.
PRINTED_ONLY = (
    ("linalg.solve_exact_s", "s"), ("decompose.chain_decompose_s", "s"),
    ("stabilize.fit_family_s", "s"), ("stabilize.symbolic_greedy_decompose_s", "s"),
    ("stabilize.positive_family_chain_s", "s"), ("stabilize.positive_family_chain_self_s", "s"),
    ("stabilize.symbolic_chain_decompose_s", "s"), ("stabilize.self_s", "s"),
    ("polynomials.self_s", "s"), ("harness.calibration_s", "s"), ("trace.untraced_run_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                   capture_output=True, text=True, check=False, timeout=10)
            commit = probe.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def child_command(workload: str, args, probe: bool) -> list[str]:
    workdir = WORKDIR / "work" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--expected", str(args.expected)]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    return cmd


def start_child(cmd: list[str], env: dict, cpu: int | None = None) -> tuple[subprocess.Popen, float]:
    """Start a child, optionally pinned to one CPU, and wait for its ready
    line; returns it and the set-up wall time."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            preexec_fn=pin)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"child did not get ready: {' '.join(cmd)}")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float, what: str) -> str:
    """Wait for a child and return the rest of its stdout; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")
    return out


def run_workload(workload: str, args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    # Probes take turns on each CPU: on a shared box one CPU can run
    # markedly slower than the other, so every run sees both equally.
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    for n in range(1 if args.smoke else SETUP_PROBES):
        proc, setup = start_child(child_command(workload, args, probe=True), env, cpus[n % len(cpus)])
        finish(proc, 30, f"{workload} set-up probe")
        setups.append(setup)
    proc, _ = start_child(child_command(workload, args, probe=False), env)
    lines = finish(proc, deadline - perf_counter(), workload).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    result = json.loads(lines[-1])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def report(workload: str, result: dict, args, env: dict) -> dict:
    """Print every figure of one workload; return the metrics for the JSON line."""
    e2e = result["end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: {json.dumps(env)}")
    print(f"passes={e2e['passes']} attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f} ({failed}/{attempted})")
    for message in result["failures"]:
        print(f"  failure: {message}")
    print(f"job_tail_s is p{e2e['job_tail_percentile']:.1f} of {e2e['job_count']} jobs "
          f"(per-job medians over passes); setup_s is the median of {len(result['setup_samples'])} set-ups")
    for name, unit in END_TO_END:
        print(f"  {name:<44} {e2e[name]:>14.6f} {unit}")
    print("raw, not normalized:")
    for name, unit in RAW:
        print(f"  {name:<44} {e2e[name]:>14.6f} {unit}")
    if args.trace:
        layers = result["per_layer"]
        for name, unit in PER_LAYER + PRINTED_ONLY:
            print(f"  {name:<44} {layers.get(name, 0):>14.6f} {unit}")
        owners = tracing.LAYERS + ("harness",)
        parts = " + ".join(f"{layer} {layers[layer + '.self_s']:.4f}" for layer in owners)
        total = sum(layers[f"{layer}.self_s"] for layer in owners)
        print(f"self times: {parts} = {total:.4f} s; traced run_s {layers['trace.run_s']:.4f} s")
        print(f"spans: {result['span_file']}")
        chosen = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        chosen = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record = dict(result, workload=workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env)
    results_dir = WORKDIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bsdecomp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=HERE / "expected",
                        help="directory of frozen stabilize reports (the self-test swaps in wrong ones)")
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    args.expected = args.expected.resolve()

    if "BSDECOMP_THREADS" in os.environ:
        print("error: unset BSDECOMP_THREADS; the benchmark measures the serial scan",
              file=sys.stderr)
        return 2
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a bsdecomp source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in names:
            result = run_workload(workload, args, perf_counter() + RUN_LIMIT_S)
            chosen = report(workload, result, args, env)
            attempted += result["attempted"]
            failed += result["failed"]
            if args.workload == "all":
                chosen = {f"{workload}.{k}": v for k, v in chosen.items()}
            metrics.update(chosen)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
