"""oscalg benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload coinv-schedule --seed 1 --seconds 10 --trace 0

Load is one process and one thread in a closed loop: one caller runs one
job at a time and starts the next when the previous returns.  Jobs are the
calls a user makes, oscalg.cli.main(argv) with stdout captured, or
oscalg.verify.check_jacobi for the library-level sweeps.  Every job's
output is checked; the command exits 1 if any job failed.  Times are
rescaled to a reference machine speed (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round
untraced, then the same round again with wrappers on the cross-layer names
(see tracer.py), prints the per-layer metrics and writes the spans to
perfbench/out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import jobs
import speed

SETUP_REPEATS = 11
TAIL_BEYOND = 10
OUT_DIR = jobs.HERE / "out"

# The traced run reports the median job time of each of these classes, so
# that time can be read against N and against the offset p.
SCALING_CLASSES = (tuple(("coinv-schedule", k) for k in ("N8", "N10", "N12", "rank2-N8"))
                   + tuple(("large-offset", f"p1e{e}") for e in (2, 3, 4, 5)))

WARMUP = {
    "coinv-schedule": [jobs.coinv_job((1,), 1, 4, "A"),
                       jobs.coinv_job((1,), 2, 2, "X")],
    "identity-battery": [jobs.Job("cli", "central-scalars", "warmup",
                                  argv=("central-scalars",)),
                         jobs.jacobi_job(tuple(range(0, 52, 9)))],
    "large-offset": [jobs.Job("cli", " ".join(argv), "warmup", argv=argv)
                     for argv in (("cocycle", "psi", "T(10)", "T(-10)"),
                                  ("bracket", "T(10)", "T(-10)"),
                                  ("fock-apply", "T(-10)", "[1]"))],
}


class Bench:
    """Imported library, generators and expected values for one run."""

    def __init__(self, workload: str, seed: int):
        jobs.use_checkout_library()
        import oscalg.cli
        import oscalg.verify
        self.cli = oscalg.cli
        self.verify = oscalg.verify
        self.workload = workload
        self.seed = seed
        self.table = jobs.load_expected()
        self.gens = jobs.acceptance_generators()
        for job in WARMUP[workload]:
            self.call(job)

    def call(self, job):
        """Run one job; (stdout, exit code or check_jacobi result, error)."""
        out = io.StringIO()
        gens = [self.gens[i] for i in job.gens]
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                if job.kind == "cli":
                    result = self.cli.main(list(job.argv))
                else:
                    result = self.verify.check_jacobi(gens)
        except (Exception, SystemExit) as e:
            return out.getvalue(), None, f"raised {type(e).__name__}: {e}"
        return out.getvalue(), result, None

    def check(self, job, out, result, error):
        if error is not None:
            return error
        if job.kind == "cli":
            return jobs.check_cli(job, self.table, result, out)
        return jobs.check_jacobi_result(result)

    def run_round(self, round_jobs, tracer=None):
        """Time each job; returns one dict per job."""
        done = []
        for i, job in enumerate(round_jobs):
            if tracer is None:
                d = speed.timed(self.call, job)
            else:
                d = speed.timed(tracer.run_job, i, self.call, job)
            out, result, error = d.pop("result")
            # Keep the output's hash, not the output: no output outlives its
            # job's check, so peak memory does not depend on the job order.
            # (hashlib would add its crypto library to the peak RSS.)
            d.update(job=job, result=result, out_bytes=len(out.encode()),
                     digest=hash(out), error=self.check(job, out, result, error))
            done.append(d)
        return done


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter to the point
    where it would start the first timed job, at reference speed.

    The speed samples are taken here before and after each child, and by
    the child itself at the start and end of its set-up (setup_only()),
    less the time the child spent sampling."""
    times = []
    for _ in range(SETUP_REPEATS):
        samples = speed.edge_samples()
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True, cwd=jobs.ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("{"):
            raise SystemExit(f"error: setup child exited {proc.returncode}")
        child = json.loads(line)
        samples += child["samples"] + speed.edge_samples()
        times.append((elapsed - child["spent"]) / speed.slowdown(samples))
    return statistics.median(times)


def setup_only(workload: str, seed: int) -> int:
    """The set-up of a run, for measure_setup(): prints the speed samples
    taken at its start and end and the time they took."""
    t0 = perf_counter()
    samples = speed.edge_samples()
    spent = perf_counter() - t0
    Bench(workload, seed)
    jobs.make_round(workload, seed, 0)
    t0 = perf_counter()
    samples += speed.edge_samples()
    spent += perf_counter() - t0
    print(json.dumps({"spent": spent, "samples": samples}), flush=True)
    return 0


def tail(walls):
    """(value, percentile): the highest percentile of job time with at
    least TAIL_BEYOND jobs beyond it."""
    ordered = sorted(walls)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def round_tail(rounds):
    """tail() within each round, the median over rounds: the percentile
    then does not depend on how many rounds a run made."""
    tails = [tail([d["wall"] for d in done]) for done in rounds]
    return statistics.median(t for t, _ in tails), tails[0][1]


def report(metrics: dict, done, extra_lines=()):
    failed = [d for d in done if d["error"] is not None]
    for d in failed:
        print(f"FAILED {d['job'].label}: {d['error']}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {"correct": not failed, "attempted": len(done),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_s = measure_setup(bench.workload, bench.seed)
    rounds = [bench.run_round(jobs.make_round(bench.workload, bench.seed, 0))]
    # Whole rounds keep the job mix of a run independent of the seed.  Run
    # as many as fit in the requested time at reference speed, at least
    # one, so the count does not change with the load on the machine.
    count = max(1, int(seconds // sum(d["wall"] for d in rounds[0])))
    for index in range(1, count):
        rounds.append(bench.run_round(
            jobs.make_round(bench.workload, bench.seed, index)))
    done = [d for r in rounds for d in r]
    walls = [d["wall"] for d in done]
    busy = sum(walls)
    tail_s, pct = round_tail(rounds)
    n = len(done)
    errors = sum(d["error"] is not None for d in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / busy, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "cpu_per_job_s": (sum(d["cpu"] for d in done) / n, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    raw = sum(d["raw_wall"] for d in done)
    lines = [f"workload {bench.workload} seed {bench.seed}: {count} round(s), "
             f"{n} jobs, {raw:.3f} s in jobs as measured, {busy:.3f} s at "
             f"reference speed (median slowdown "
             f"{statistics.median(d['slowdown'] for d in done):.3f})",
             f"job_tail_s {tail_s} s: p{pct:.0f} of the {len(rounds[0])} jobs of "
             f"a round ({TAIL_BEYOND} beyond it), median over rounds",
             f"error_rate {errors / n} ratio"]
    return report(metrics, done, lines)


def traced(bench: Bench) -> dict:
    from tracer import Tracer, leftover_wrappers
    round_jobs = jobs.make_round(bench.workload, bench.seed, 0)
    plain = bench.run_round(round_jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_done = bench.run_round(round_jobs, tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced_done):
        if b["error"] is None and (a["digest"], a["result"]) != (b["digest"], b["result"]):
            b["error"] = "traced output differs from the untraced output"
    left = leftover_wrappers()
    if left:
        traced_done[0]["error"] = f"wrappers left installed: {left}"

    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = (
        sum(d["out_bytes"] for d in traced_done), "bytes")
    metrics["job_tail_s"] = (tail([d["wall"] for d in plain])[0], "s")
    metrics["trace.overhead"] = (sum(d["wall"] for d in traced_done)
                                 / sum(d["wall"] for d in plain), "ratio")
    for workload, klass in SCALING_CLASSES:
        walls = [d["wall"] for d in plain if workload == bench.workload
                 and d["job"].klass == klass]
        metrics[f"scale.{workload}.{klass}_p50_s"] = (
            statistics.median(walls) if walls else 0.0, "s")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{bench.workload}-{bench.seed}.json"
    with open(path, "w") as fh:
        json.dump(tracer.dump([j.label for j in round_jobs]), fh)
    return report(metrics, plain + traced_done, [f"spans written to {path}"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    bench = Bench(args.workload, args.seed)
    result = traced(bench) if args.trace else end_to_end(bench, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
