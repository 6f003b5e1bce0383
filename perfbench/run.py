"""The repo benchmark: end-to-end timings, per-layer self time, checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lstsq_ladder --seed 1 --seconds 60 --trace 0

One single-threaded process drives the workload as a closed loop of
back-to-back passes on the program's default execution backend.  Set-up
(import, input generation, problem construction) is timed in separate
child processes and reported on its own.  With ``--trace 0`` the fixed
kernel of :mod:`reference` runs between passes, and the last line of
standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the run spends half its time untraced and half with
every ``repro`` layer wrapped by :mod:`tracer`, and reports per-layer
metrics.  Every pass is checked; a failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up is timed this many times, in fresh processes, and the median kept
SETUP_REPEATS = 5
#: the percentiles a timing may be reported at, highest last
PERCENTILES = (90, 99, 99.9)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small problem sizes, for the benchmark's tests"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def write(line: str = "") -> None:
    sys.stdout.write(line + "\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def timing(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    summary = {"median": statistics.median(ordered), "n": len(ordered)}
    for p in PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            summary[f"p{p:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return summary


def format_timing(summary) -> str:
    extra = "".join(
        f", {key} {value:.6g} s" for key, value in summary.items() if key.startswith("p")
    )
    return f"median {summary['median']:.6g} s{extra} (n={summary['n']})"


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build(args):
    """Import the program and build the workload; returns it."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)


def setup_seconds(argv) -> float:
    """Median set-up time over fresh processes (the import is only paid
    once per process, so it cannot be repeated in this one)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if child.returncode:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"set-up failed with exit code {child.returncode}")
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples)


def git_sha() -> str:
    """The checkout's commit, read without running git ('unknown' when the
    checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed) -> dict:
    import numpy
    from repro.exec import ENV_VAR, get_backend

    return {
        "backend": get_backend().name,
        "backend_env_set": ENV_VAR in os.environ,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Runner:
    """Runs passes of one workload, checking each against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        clock = time.perf_counter
        if tracer is None:
            start = clock()
            result = self.workload.run()
            wall = clock() - start
        else:
            with tracer.installed():
                start = clock()
                result = self.workload.run()
                wall = clock() - start
        self.attempted += len(result.digests)
        if self.first is None:
            self.first = result
            self.failures += self.workload.check(result)
        else:
            for index, (seen, want) in enumerate(zip(result.digests, self.first.digests)):
                if seen != want:
                    self.failures.append(f"operation {index}: output differs from the first pass")
        return result, wall

    def loop(self, seconds, tracer=None, reference=None):
        """Back-to-back passes for ``seconds``: at least one, and another
        only while a pass of median length still ends within the budget.
        A ``reference`` kernel, if given, runs before every pass and after
        the last; its wall times are returned after the passes'."""
        clock = time.perf_counter
        results, walls, refs = [], [], []

        def calibrate():
            if reference is not None:
                start = clock()
                reference()
                refs.append(clock() - start)

        def next_pass_ends():
            return clock() + statistics.median(walls) + statistics.median(refs or [0.0])

        deadline = clock() + seconds
        calibrate()
        while not walls or next_pass_ends() <= deadline:
            result, wall = self.run_pass(tracer)
            results.append(result)
            walls.append(wall)
            calibrate()
        return results, walls, refs


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def solve_samples(results, m) -> list:
    """Seconds of every ``m``-limb solve over a list of passes."""
    return [s for result in results for s in result.solve_s.get(m, [])]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def per_layer(runner, untraced_walls, results, traced_walls, tracer) -> dict:
    passes = len(traced_walls)
    wall = statistics.fmean(untraced_walls)
    first = runner.first
    workload = runner.workload

    def layer(name):
        calls, seconds = tracer.layer(name)
        return calls / passes, seconds / passes

    md_calls, md_s = layer("md")
    exec_s = layer("exec")[1]
    vec_calls, vec_s = layer("vec")
    lstsq_calls, lstsq_s = layer("batch.lstsq")
    series_calls, series_s = layer("series")
    poly_calls, poly_s = layer("poly")
    launches = tracer.launches / passes
    trials = tracer.calls("series", "error_estimate") / passes
    untraced = (sum(traced_walls) - tracer.covered_s) / passes
    solve = {m: statistics.median(solve_samples(results, m) or [0.0]) for m in (2, 4, 8)}
    return {
        "md.scalar_calls": metric(md_calls, "count"),
        "md.scalar_self_s": metric(md_s, "s"),
        "exec.launches": metric(launches, "count"),
        "exec.self_s": metric(exec_s, "s"),
        "exec.us_per_launch": metric(1e6 * exec_s / launches if launches else 0.0, "us"),
        "exec.elements_per_launch": metric(
            tracer.launch_elements / tracer.launches if tracer.launches else 0.0, "count"
        ),
        "exec.launches_per_model_launch": metric(launches / first.model_launches, "ratio"),
        "vec.calls": metric(vec_calls, "count"),
        "vec.self_s": metric(vec_s, "s"),
        "core.qr_self_s": metric(layer("core.qr")[1], "s"),
        "core.bs_self_s": metric(layer("core.bs")[1], "s"),
        "core.lstsq_self_s": metric(layer("core.lstsq")[1], "s"),
        "batch.lstsq_calls": metric(lstsq_calls, "count"),
        "batch.lstsq_self_s": metric(lstsq_s, "s"),
        "batch.pade_self_s": metric(layer("batch.pade")[1], "s"),
        "batch.fleet_self_s": metric(layer("batch.fleet")[1], "s"),
        "batch.occupancy": metric(first.occupancy, "fraction"),
        "series.step_control_calls": metric(series_calls, "count"),
        "series.step_control_self_s": metric(series_s, "s"),
        "series.trials_per_step": metric(trials / first.steps if first.steps else 0.0, "ratio"),
        "poly.eval_calls": metric(poly_calls, "count"),
        "poly.eval_self_s": metric(poly_s, "s"),
        "gpu.model_ms": metric(first.model_ms, "ms"),
        "gpu.model_launches": metric(first.model_launches, "count"),
        "host_over_model": metric(1e3 * wall / first.model_ms, "ratio"),
        "bench.wall_s": metric(wall, "s"),
        "bench.untraced_s": metric(untraced, "s"),
        "bench.trace_overhead": metric(statistics.fmean(traced_walls) / wall, "ratio"),
        "lstsq.solve_dd_s": metric(solve[2], "s"),
        "lstsq.solve_qd_s": metric(solve[4], "s"),
        "lstsq.solve_od_s": metric(solve[8], "s"),
        "fleet.path_steps_per_s": metric(first.steps / wall, "1/s"),
        "oracle.worst_backward_error_u": metric(getattr(workload, "worst_error_u", 0.0), "u"),
        "oracle.worst_endpoint_residual": metric(getattr(workload, "worst_residual", 0.0), "1"),
    }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def report_passes(runner, results, walls) -> None:
    first = runner.first
    write(f"pass wall: mean {statistics.fmean(walls):.6g} s, {format_timing(timing(walls))}")
    write("  passes: " + " ".join(f"{wall:.4f}" for wall in walls))
    if first.solve_s:
        dd, qd, od = (timing(solve_samples(results, m)) for m in (2, 4, 8))
        for name, summary in (("dd", dd), ("qd", qd), ("od", od)):
            write(f"  {name} solve: {format_timing(summary)}")
        model = first.solve_model_ms
        write(
            "  precision doubling, measured (modelled): "
            f"qd/dd {qd['median'] / dd['median']:.2f}x ({model[4] / model[2]:.2f}x), "
            f"od/qd {od['median'] / qd['median']:.2f}x ({model[8] / model[4]:.2f}x)"
        )
    if first.steps:
        write(
            f"  {first.steps} accepted path steps per pass: "
            f"{first.steps / statistics.fmean(walls):.4g} steps/s"
        )
    write(f"  cost model: {first.model_ms:.4g} ms in {first.model_launches} launches per pass")


def report_layers(tracer, traced_walls, metrics) -> None:
    passes = len(traced_walls)
    wall = sum(traced_walls) / passes
    layers = sorted({name for name, _ in tracer.totals})
    write(f"per-layer self time, traced pass wall {wall:.4g} s (n={passes}):")
    write(f"  {'layer':<14}{'calls':>12}{'self s':>12}{'share':>8}")
    for name in layers:
        calls, seconds = tracer.layer(name)
        write(
            f"  {name:<14}{calls / passes:>12.0f}{seconds / passes:>12.4f}"
            f"{seconds / passes / wall:>8.1%}"
        )
    untraced = metrics["bench.untraced_s"]["value"]
    write(f"  {'(untraced)':<14}{'':>12}{untraced:>12.4f}{untraced / wall:>8.1%}")
    write(
        f"  gpu.model_ms {metrics['gpu.model_ms']['value']:.4g} ms, "
        f"host_over_model {metrics['host_over_model']['value']:.4g}x, "
        f"trace overhead {metrics['bench.trace_overhead']['value']:.3g}x"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.setup_probe:
        start = time.perf_counter()
        build(args)
        write(repr(time.perf_counter() - start))
        return 0

    setup_s = setup_seconds(argv)
    runner = Runner(build(args))
    import reference
    write("env: " + json.dumps(environment(args.seed), sort_keys=True))
    write(f"workload {args.workload}, seed {args.seed}, set-up {setup_s:.4g} s")

    problems = []
    budget = args.seconds / 2 if args.trace else args.seconds
    results, walls, refs = runner.loop(budget, reference=None if args.trace else reference.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_passes(runner, results, walls)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        _, traced_walls, _ = runner.loop(args.seconds - budget, tracer)
        metrics = per_layer(runner, walls, results, traced_walls, tracer)
        accounted = tracer.self_seconds() + metrics["bench.untraced_s"]["value"] * len(traced_walls)
        if abs(accounted - sum(traced_walls)) > 1e-6 * sum(traced_walls):
            problems.append(
                f"self times add up to {accounted:.6f} s, not the traced {sum(traced_walls):.6f} s"
            )
        report_layers(tracer, traced_walls, metrics)
    else:
        # wall_ref is the run's mean pass wall time over its mean
        # reference-kernel wall time (reference.py says why); the raw
        # seconds are printed above and reported as bench.wall_s
        ref_summary = format_timing(timing(refs))
        write(f"reference kernel: mean {statistics.fmean(refs):.6g} s, {ref_summary}")
        metrics = {
            "wall_ref": metric(statistics.fmean(walls) / statistics.fmean(refs), "ref"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    for name, value in metrics.items():
        write(f"{name} = {value['value']:.6g} {value['unit']}")
    failed = len(runner.failures)
    for failure in runner.failures + problems:
        write(f"FAILED: {failure}")
    write(f"failed_share = {failed / runner.attempted:.6g} ({failed}/{runner.attempted})")
    write(
        json.dumps(
            {
                "correct": not (failed or problems),
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed or problems else 0


if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.exit(main())
