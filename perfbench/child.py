"""One workload in one single-threaded process; started by run.py.

It imports bsdecomp and makes the workload's inputs, then prints ``ready``
(the parent times set-up up to that line). It then runs passes over the
workload's jobs in a closed loop until the time budget would be exceeded,
checking every output outside the timed region. With ``--trace 1`` the first half of the
budget runs untraced and the rest traced, so the difference is the tracing
overhead. The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def job_percentiles(per_key: dict[str, float]) -> tuple[float, float, float, int]:
    """Median job time, and the time at the highest percentile that has at
    least ten jobs beyond it (the slowest job when there are ten or fewer),
    with that percentile and the job count."""
    times = sorted(per_key.values())
    n = len(times)
    rank = n - 10 if n > 10 else n
    return statistics.median(times), times[rank - 1], 100.0 * rank / n, n


class Runner:
    def __init__(self, cli, workload, jobs, expected, sampler):
        self.cli = cli
        self.workload = workload
        self.jobs = jobs
        self.expected = expected
        self.sampler = sampler
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, number: int, tracer=None) -> dict:
        """Run every job once. Times are work time, with the speed samples
        taken out, in raw seconds and in normalized seconds."""
        raw_wall = raw_cpu = work_cpu = 0.0
        work = {}
        samples = []
        ratios = []
        job_factor = {}
        lo = len(tracer.spans) if tracer else 0
        for key, argv in self.jobs:
            first = len(tracer.spans) if tracer else 0
            error = output = None
            c0 = process_time()
            t0 = perf_counter()
            try:
                output = self.workload.run(self.cli, argv)
            except Exception:
                error = traceback.format_exc()
            t1 = perf_counter()
            c1 = process_time()
            if tracer:
                tracer.job_span(f"pass{number}.{key}", t0, t1, first)
            job_samples = self.sampler.between(t0, t1)
            samples.extend(job_samples)
            job_ratios = [speed.REFERENCE_S / d for _, d in job_samples]
            ratios.extend(job_ratios)
            sampled = sum(d for _, d in job_samples)
            raw_wall += t1 - t0
            raw_cpu += c1 - c0
            work[key] = t1 - t0 - sampled
            work_cpu += c1 - c0 - sampled
            if len(job_ratios) >= speed.MIN_JOB_SAMPLES:
                job_factor[key] = statistics.mean(job_ratios)
            self.attempted += 1
            if error is None:
                try:
                    self.workload.check(key, output, self.expected)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                self.failures.append(f"pass {number} {key}: {error.strip().splitlines()[-1]}")
                print(f"job failed: pass {number} {key}\n{error}", file=sys.stderr)
        # a pass shorter than the sampling interval holds no sample
        factor = statistics.mean(ratios) if ratios else speed.calibrate()
        result = {
            "raw_wall": raw_wall,
            "raw_cpu": raw_cpu,
            "factor": factor,
            "wall": sum(work.values()) * factor,
            "cpu": work_cpu * factor,
            # a job long enough to hold a few samples gets its own factor
            "jobs": {key: t * job_factor.get(key, factor) for key, t in work.items()},
        }
        if tracer:
            result["spans"] = (lo, len(tracer.spans))
            result["counts"] = tracer.take_counts()
            result["samples"] = samples
        return result

    def run_until(self, passes: list, deadline: float, tracer=None) -> None:
        """At least one pass; another only if it should end by the deadline."""
        while True:
            start = perf_counter()
            passes.append(self.one_pass(len(passes), tracer))
            now = perf_counter()
            if now + (now - start) > deadline:
                return


def end_to_end(passes: list) -> dict:
    per_key = {
        key: statistics.median(p["jobs"][key] for p in passes) for key in passes[0]["jobs"]
    }
    p50, tail, pct, count = job_percentiles(per_key)
    return {
        "run_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "job_p50_s": p50,
        "job_tail_s": tail,
        "job_tail_percentile": pct,
        "job_count": count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_wall_s": statistics.median(p["raw_wall"] for p in passes),
        "run_cpu_s": statistics.median(p["raw_cpu"] for p in passes),
        "speed_factor": statistics.median(p["factor"] for p in passes),
        "passes": len(passes),
        "pass_walls": [p["raw_wall"] for p in passes],
        "pass_factors": [p["factor"] for p in passes],
        "job_medians": per_key,
    }


def layer_summary(tracer, traced: list, untraced_run_s: float, span_file: Path) -> dict:
    """Per-layer figures from the traced pass with the median time, in raw
    seconds; the overhead compares normalized pass times."""
    import tracing

    chosen = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
    lo, hi = chosen["spans"]
    out = tracing.summarize(tracer.spans, lo, hi, *chosen["counts"], chosen["samples"])
    out["decompose.chains_enumerated"] = out.pop("decompose.enumerate_maximal_chains.yields", 0)
    expanded = out.pop("stabilize.chains_expanded", 0)
    returned = out.get("stabilize.positive_family_chain_calls", 0)
    # chains expanded per positive chain returned; 0 when none was searched
    out["stabilize.chain_search_visited"] = expanded / returned if returned else 0.0
    out["trace.overhead_s"] = chosen["wall"] - untraced_run_s
    out["trace.untraced_run_s"] = untraced_run_s
    out["trace.traced_run_s"] = chosen["wall"]
    out["trace.passes"] = len(traced)
    tracing.write_spans(span_file, tracer.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--expected", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit once inputs are ready")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bsdecomp.cli

    import workloads

    workload = workloads.make_workloads(args.smoke)[args.workload]
    jobs = workload.prepare(args.seed, args.workdir)
    print("ready", flush=True)
    if args.probe:
        return 0

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "tests"))
    untraced: list = []
    traced: list = []
    tracer = None
    with speed.SpeedSampler() as sampler:
        runner = Runner(bsdecomp.cli, workload, jobs, workload.load_expected(args.expected), sampler)
        if args.trace:
            import tracing

            runner.run_until(untraced, start + args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            runner.run_until(traced, start + args.seconds, tracer)
        else:
            runner.run_until(untraced, start + args.seconds)
    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "end_to_end": end_to_end(untraced),
    }
    if tracer is not None:
        span_file = args.workdir / "spans.jsonl"
        result["per_layer"] = layer_summary(
            tracer, traced, result["end_to_end"]["run_s"], span_file
        )
        result["span_file"] = str(span_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
