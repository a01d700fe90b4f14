"""Command line: ``python -m perfbench {one,run,aa}``.

``one`` is what BENCHMARK.json's command runs: a single workload in this
process, one JSON result object on the last line of standard output.  ``run``
and ``aa`` start one ``one`` subprocess per run, so no run inherits another's
heap, thread pools or warmed caches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from . import ROOT, load_spec

SRC = os.path.join(ROOT, "src")
SMOKE_SECONDS = 1.6  # eight 0.2 s rounds: long enough for one update_mixed vacuum op
AA_SEEDS = 5  # runs per workload per set of `aa`
# The environment every run gets.  Hash seed: set and dict-of-tuples iteration
# order must not vary between runs.  One BLAS thread: with OpenBLAS's default
# of one per core its workers spin on the core the program's own pool and client
# threads need, and rounds of one run flip between two speeds (README, Noise).
PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)


def one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: src/repro not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU (README, Noise): on two, where the kernel and the hypervisor place
        # the program's pool threads decides the speed, and that placement outlives a run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if any(os.environ.get(name) != value for name, value in PINNED.items()):
        os.execve(sys.executable, [sys.executable, "-m", "perfbench", *sys.argv[1:]], {**os.environ, **PINNED})
    from .harness import run_one

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int, scale: str, echo: bool) -> dict:
    """One ``one`` subprocess; returns its result object."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "one", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        cwd=ROOT, env={**os.environ, **PINNED}, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench one --workload {workload} exited with {done.returncode}")
    *detail, last = done.stdout.strip().splitlines()
    if echo:
        for line in detail:
            print(f"    {line}")
    return json.loads(last)


def show(result: dict, better: dict[str, str]) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:14.4f} {metric['unit']:<6} ({better[name]} is better)")
    print(f"  correct {result['correct']}  attempted {result['attempted']}  failed {result['failed']}")


def run(args, spec: dict) -> int:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    scale, seconds = ("smoke", SMOKE_SECONDS) if args.smoke else ("full", spec["run_seconds"])
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            print(f"== {workload}  seed {args.seed}  {'per-layer (traced)' if trace else 'end to end'}")
            result = spawn(workload, args.seed, seconds, trace, scale, echo=True)
            show(result, better)
            ok = ok and result["correct"]
    return 0 if ok else 1


def aa(args, spec: dict) -> int:
    """Two sets of runs of the same code; every pair of medians must agree within its bound."""
    scale, seconds = ("smoke", SMOKE_SECONDS) if args.smoke else ("full", spec["run_seconds"])
    seeds = [1] if args.smoke else list(range(1, AA_SEEDS + 1))
    workloads = [w["name"] for w in spec["workloads"]]
    sets: list[dict] = []
    ok = True
    for label in "AB":
        values: dict = {}
        for workload in workloads:
            for seed in seeds:
                result = spawn(workload, seed, seconds, 0, scale, echo=False)
                ok = ok and result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
            print(f"set {label}: {workload} done", flush=True)
        sets.append(values)
    breaches = 0
    print(f"{'workload':<18}{'metric':<15}{'median A':>12}{'median B':>12}{'B worse by':>12}{'bound':>8}")
    for metric in spec["end_to_end"]:
        for workload in workloads:
            a, b = (s[(workload, metric["name"])] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a
            breach = not args.smoke and worse > metric["bound"]
            breaches += breach
            print(f"{workload:<18}{metric['name']:<15}{med_a:12.4f}{med_b:12.4f}{worse:+12.3f}"
                  f"{metric['bound']:8.3f}{'  BREACH' if breach else ''}")
    print(f"{breaches} breach(es); all answers correct: {ok}")
    return 0 if ok and not breaches else 1


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    p_one = sub.add_parser("one", help="one workload, in this process (the BENCHMARK.json command)")
    p_one.add_argument("--workload", required=True)
    p_one.add_argument("--seed", type=int, required=True)
    p_one.add_argument("--seconds", type=float, required=True)
    p_one.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_one.add_argument("--scale", choices=("full", "smoke"), default="full")
    p_run = sub.add_parser("run", help="every workload, end to end and traced, every metric printed")
    p_run.add_argument("--workload", action="append")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--smoke", action="store_true", help="a fifth of the rows and 1.6 s per run, for CI")
    p_aa = sub.add_parser("aa", help="two sets of runs of the same code, compared against the bounds")
    p_aa.add_argument("--smoke", action="store_true", help="one short run per set, bounds not enforced")
    args = parser.parse_args()
    if args.command == "one":
        return one(args)
    return run(args, load_spec()) if args.command == "run" else aa(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
