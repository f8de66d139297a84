"""kooba benchmark: one pipeline of public calls per workload, timed and checked.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, from rounds run
with every listed public function wrapped (see tracing.py). Files go to
.bench_out/ under the repository root. See README.md in this directory.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MB = 1e6


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, by statistics.quantiles' default (exclusive) method.

    The one quartile rule of the benchmark: a run's timed metrics are the Q3
    of its samples, and steady.py spreads are (Q3 - Q1) / median over runs.
    With fewer than three values Q3 would lie beyond the largest, so those
    give NaN.
    """
    if len(values) < 3:
        return [float("nan")] * 3
    return statistics.quantiles(values, n=4)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_kooba():
    """Pin BLAS to one thread, then import kooba from ./src and nowhere else."""
    src = ROOT / "src"
    if not (src / "kooba" / "__init__.py").is_file():
        sys.exit(f"error: no kooba package under {src}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import kooba
    if Path(kooba.__file__).resolve().parent != (src / "kooba").resolve():
        sys.exit(f"error: kooba imported from {kooba.__file__}, not {src}")


def run_rounds(pipe, seconds: float, tracer=None, after_first=None) -> dict:
    """Rounds while the next one should end within `seconds`; at least one.

    With a tracer, rounds alternate untraced and traced, in pairs.
    after_first runs once, after the first round, outside the timed rounds.
    """
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    while True:
        t0 = perf_counter()
        pipe.round()
        times["untraced"].append(perf_counter() - t0)
        if tracer is not None:
            tracer.round = len(times["traced"])
            tracer.install()
            t0 = perf_counter()
            try:
                pipe.round()
            finally:
                tracer.uninstall()
            times["traced"].append(perf_counter() - t0)
        if after_first is not None:
            after_first()
            after_first = None
        spent = sum(times["untraced"]) + sum(times["traced"])
        if spent + spent / len(times["untraced"]) > seconds:
            return times


def main(argv=None) -> int:
    args = parse_args(argv)
    import_kooba()
    import_s = perf_counter() - T_START

    from pipeline import Pipeline
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    pipe = Pipeline(WORKLOADS[args.workload], args.seed, out)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pipe.setup()
        setups.append(perf_counter() - t0)

    phases = {"setup": perf_counter() - T_START}
    t_phase = perf_counter()
    memory = {}

    def memory_pass():
        # ru_maxrss before tracemalloc runs; rounds repeat the same work
        memory["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        t0 = perf_counter()
        memory["peak"] = pipe.fit_peak_bytes() / MB if pipe.first is not None else float("nan")
        phases["memory_pass"] = perf_counter() - t0

    if args.trace:
        tracer = Tracer()
        times = run_rounds(pipe, args.seconds, tracer)
        metrics = {k: (v, "count" if k.endswith(".calls") else "s")
                   for k, v in tracer.summary(len(times["traced"])).items()}
        untraced = statistics.median(times["untraced"])
        metrics["trace.round_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (statistics.median(times["traced"]) - untraced, "s")
        tracer.write(out / "spans.npz")
    else:
        run_rounds(pipe, args.seconds, after_first=memory_pass)
        # Q3, not the median: the host's speed drifts between a loaded state
        # and bursts up to 1.6 times faster; the median sits where the two
        # meet and moves with the share of a run spent in bursts, while Q3
        # stays on the loaded speed (see README.md, Noise)
        q3 = {k: quartiles([d for _, d in v])[2] for k, v in pipe.samples.items()}
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "command_s": (q3["command_s"], "s"),
            "fit_s": (q3["fit_s"], "s"),
            "score_s": (q3["score_s"], "s"),
            "forecast_p75_ms": (1e3 * q3["forecast_s"], "ms"),
            "fit_peak_mb": (memory["peak"], "MB"),
            "peak_rss_mb": (memory["rss"], "MB"),
        }

    phases["rounds"] = perf_counter() - t_phase
    t_phase = perf_counter()
    problems, facts = pipe.check()
    phases["checks"] = perf_counter() - t_phase
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": pipe.attempted // pipe.round_ops, "phases_s": phases,
               "problems": problems, "facts": facts,
               "samples": {k: [(t - T_START, d) for t, d in v] for k, v in pipe.samples.items()}}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not problems,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
