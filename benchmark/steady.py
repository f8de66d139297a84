"""Steadiness check: two sets of ten runs of the same code, compared by bounds.

    python3 benchmark/steady.py [--workload NAME ...]

Runs run.py once per seed, one process at a time, for run_seconds from
BENCHMARK.json: set 1 on seeds 1-10, then set 2 on seeds 11-20. For every
end-to-end metric it prints each set's median and quartiles, and the spread
(Q3 - Q1) / median. The sets agree when every spread stays within the
metric's bound in BENCHMARK.json, the two medians differ by no more than the
bound (as a share of set 1's median, either way), and every run has the same
share of failed operations. Raw runs go to .bench_out/steady-<workload>.json.
Exits 1 when the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def compare(spec: dict, sets: list[list[dict]]) -> list[str]:
    """Print each metric per set; return the disagreements."""
    problems = []
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) != 1:
        problems.append(f"failed shares differ between runs: {sorted(shares)}")
    if not all(r["correct"] for runs in sets for r in runs):
        problems.append("some run failed its output checks")
    print(f"  {'metric':<16} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, runs in enumerate(sets):
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / med
            print(f"  {name:<16} {k + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6.3f}")
            if spread > bound:
                problems.append(f"{name}: set {k + 1} spread {spread:.3f} > bound {bound}")
            medians.append(med)
        shift = (medians[1] - medians[0]) / medians[0]
        if abs(shift) > bound:
            problems.append(f"{name}: set 2 median differs from set 1 by {shift:+.3f}, "
                            f"bound {bound}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="two sets of ten runs, compared by bounds")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)

    verdict = 0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = k * RUNS + i + 1
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                runs.append(result)
                print(f"{workload} set {k + 1} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
            sets.append(runs)
        (out_dir / f"steady-{workload}.json").write_text(
            json.dumps(sets, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}:")
        problems = compare(spec, sets)
        for problem in problems:
            print(f"  DISAGREE {problem}")
        print(f"  {'sets agree' if not problems else 'sets DISAGREE'}", flush=True)
        verdict |= bool(problems)
    return verdict


if __name__ == "__main__":
    sys.exit(main())
