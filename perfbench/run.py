#!/usr/bin/env python3
"""Benchmark of fountain-lab: Monte Carlo trials, LP bounds, asymptotic scans.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--json PATH]

With --workload, runs that workload in this process: it repeats the
workload's operations in whole rounds until they have taken S seconds,
times its set-up in fresh child processes spread over the run, checks every
output, and prints machine facts, attempted and failed operations, every
metric with its unit and, as the last line, one JSON object. --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and reports the per-module metrics. S defaults to run_seconds in
BENCHMARK.json. Without --workload it runs every workload, each in a fresh
process, and prints all of them. --json PATH also writes the results there.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
NAMES = ("mc_trials", "lp_bound", "asym_scan")
# fresh processes that time the set-up, spread over the run
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170
# the tail is the highest of these percentiles with ten samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The library gains nothing from a second BLAS thread, but starting one
# doubles the time of `import numpy` whenever the other processor is busy;
# one thread keeps that out of setup_s. main() sets these before numpy is
# imported; the set-up probes and the workloads' processes inherit them.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim_harness.trial_s": "s",
    "sim_harness.self_s": "s",
    "lt_codec.encode_s": "s",
    "lt_codec.encode_edges_per_s": "1/s",
    "lt_codec.decoder_init_s": "s",
    "lt_codec.peel_s": "s",
    "lt_codec.symbols": "count",
    "lt_codec.edges": "count",
    "lt_codec.edge_removals": "count",
    "lt_codec.decoded": "count",
    "cli.self_s": "s",
    "lp_bounds.dual_s": "s",
    "lp_bounds.primal_s": "s",
    "lp_bounds.simplex_s": "s",
    "lp_bounds.s_per_pivot": "s",
    "lp_bounds.simplex_calls": "count",
    "lp_bounds.pivots": "count",
    "lp_bounds.primal_self_s": "s",
    "lp_bounds.bracket_gap": "rate",
    "asymptotics.s_of_r_s": "s",
    "asymptotics.scan_s": "s",
    "asymptotics.bisect_s": "s",
    "asymptotics.bisect_steps": "count",
    "asymptotics.check_margin_s": "s",
    "asymptotics.r_of_z_s": "s",
    "asymptotics.polish_s": "s",
    "asymptotics.r_of_z_peak_alloc_mb": "MB",
    "degree_dist.pgf_derivative_s": "s",
    "degree_dist.pgf_derivative_points": "count",
    "degree_dist.build_s": "s",
    "trace.overhead_s": "s",
}


def _use_checkout_library() -> None:
    """Import fountain_lab from this checkout's src/, or exit with an error."""
    if not (SRC / "fountain_lab" / "__init__.py").is_file():
        sys.exit(f"error: no fountain_lab package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def set_up(name: str, seed: int):
    """Package import, the workload's distributions and a warm-up, timed."""
    t0 = time.perf_counter()
    import fountain_lab

    from perfbench import workloads

    library = Path(fountain_lab.__file__).resolve()
    if SRC.resolve() not in library.parents:
        sys.exit(f"error: fountain_lab imported from {library}, not from {SRC}")
    workload = workloads.build(name, seed)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def _mix64(x: int) -> int:
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def reference_loop() -> float:
    """Seconds for 20,000 SplitMix64 steps in pure Python: the machine's pace."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = _mix64(x + i)
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) by nearest rank, from TAIL_LADDER."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return q, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def measure(workload, seconds: float, trace: bool, after_round=None) -> dict:
    """Whole rounds of the workload's operations until they have taken `seconds`.

    Only the operations' own time counts towards `seconds`. A run makes one
    round at least, and with `trace` two, the odd ones traced. Outputs are
    checked between operations, outside the timed calls. `after_round` is
    called after each round with the share of `seconds` used so far.
    """
    from perfbench import checks

    recorder = None
    if trace:
        from perfbench import tracing

        recorder = tracing.Recorder()
    first: dict[int, object] = {}
    # latency samples of the operations that did not fail
    times: dict[bool, list[float]] = {False: [], True: []}
    per_op: list[list[float]] = [[] for _ in workload.ops]
    failures: dict[str, int] = {}
    problems: list[str] = []
    attempted = failed = 0
    ref = []
    round_rates = []
    spent = 0.0
    round_index = 0
    while round_index < (2 if trace else 1) or spent < seconds:
        traced = trace and round_index % 2 == 1
        ref.append(reference_loop())
        round_s, round_failed = 0.0, failed
        with tracing.traced(recorder) if traced else nullcontext():
            for i, op in enumerate(workload.ops):
                root = recorder.begin_op(op.kind, round_index) if traced else None
                out, error = None, None
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except checks.CheckError as exc:
                    error = exc
                    problems.append(f"{op.name}: {exc}")
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    error = exc
                    message = f"{op.name}: {type(exc).__name__}: {exc}"
                    failures[message] = failures.get(message, 0) + 1
                    failed += 1
                dt = time.perf_counter() - t0
                round_s += dt
                if error is None:
                    times[traced].append(dt)
                    if not traced:
                        per_op[i].append(dt)
                attempted += 1
                try:
                    if traced:
                        recorder.end_op(root)
                    if error is not None:
                        continue
                    if i in first:
                        checks.check_repeat(out, first[i], op.name)
                    else:
                        first[i] = out
                        op.check(out)
                except checks.CheckError as exc:
                    problems.append(f"{op.name}: {exc}")
        if not traced:
            round_rates.append((len(workload.ops) - (failed - round_failed)) / round_s)
        spent += round_s
        round_index += 1
        if after_round is not None:
            after_round(spent / seconds if seconds > 0.0 else 1.0)
    try:
        workload.final_check(first)
    except checks.CheckError as exc:
        problems.append(f"{workload.name}: {exc}")
    return {
        "rounds": round_index,
        "attempted": attempted,
        "failed": failed,
        "times": times[False],
        "round_rates": round_rates,
        "traced_times": times[True],
        "op_median_s": {
            op.name: statistics.median(ts) for op, ts in zip(workload.ops, per_op) if ts
        },
        "failures": failures,
        "problems": problems,
        "first": first,
        "reference_loop_s": ref,
        "recorder": recorder,
    }


def _setup_probe(name: str, seed: int) -> dict:
    """Set up once in a fresh process: its set-up and build times."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy

    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=30, env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "git_sha": sha or "unknown (not a git checkout)",
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, _ = set_up(name, seed)
    samples: list[dict] = []

    def probe_up_to(share: float) -> None:
        # the probes follow the run's rounds, so that they meet the
        # machine's slow and fast phases as the operations do
        while len(samples) < math.floor(SETUP_PROBES * min(share, 1.0)):
            samples.append(_setup_probe(name, seed))

    run = measure(workload, seconds, trace, after_round=probe_up_to)
    probe_up_to(1.0)
    q, tail_s, beyond = tail(run["times"])
    if trace:
        from perfbench import tracing

        layers = tracing.layer_metrics(run["recorder"])
        layers["degree_dist.build_s"] = statistics.median(s["build_s"] for s in samples)
        layers["trace.overhead_s"] = statistics.median(run["traced_times"]) - statistics.median(
            run["times"]
        )
        if name == "lp_bound":
            layers["lp_bounds.bracket_gap"] = sum(
                upper - lower for _, lower, upper, _ in run["first"].values()
            )
        metrics = {key: float(layers.get(key, 0.0)) for key in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "ops_per_s": statistics.median(run["round_rates"]),
            "op_s.p50": statistics.median(run["times"]),
            "op_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": run["rounds"],
        "ops_per_round": len(workload.ops),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "correct": not run["problems"],
        "problems": run["problems"],
        "tail_percentile": q,
        "samples": len(run["times"]),
        "samples_beyond_tail": beyond,
        "op_median_s": run["op_median_s"],
        "setup_samples_s": [s["setup_s"] for s in samples],
        "reference_loop_s": run["reference_loop_s"],
        "metrics": metrics,
        "recorder": run["recorder"],
    }


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    name = result["workload"]
    units = PER_LAYER if result["trace"] else END_TO_END
    print(f"# workload {name}: seed {result['seed']}, {result['rounds']} rounds of "
          f"{result['ops_per_round']} operations, trace {result['trace']}")
    print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}")
    for message, count in sorted(result["failures"].items()):
        print(f"#   failed x{count}: {message}")
    for problem in result["problems"]:
        print(f"#   CHECK FAILED: {problem}")
    print(f"# {name}: op_s.tail is p{result['tail_percentile']:g} of {result['samples']} "
          f"samples, {result['samples_beyond_tail']} beyond it")
    print(f"# {name}: set-up samples (s): "
          + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
    ref = result["reference_loop_s"]
    print(f"# {name}: reference loop (20,000 mix64 steps, not a metric): median "
          f"{statistics.median(ref):.4f} s, min {min(ref):.4f} s, max {max(ref):.4f} s")
    for op_name, median in sorted(result["op_median_s"].items(), key=lambda kv: kv[1]):
        print(f"# {name}: median {median:.4f} s  {op_name}")
    for key, value in result["metrics"].items():
        print(f"{name}  {key:<38} {value:.6g} {units[key]}")


def _public(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "recorder"}


def _last_line(result: dict) -> str:
    units = PER_LAYER if result["trace"] else END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="operation time per workload (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", help="also write the results as JSON")
    parser.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    os.environ.update(BLAS_THREADS)
    _use_checkout_library()

    if args.setup_probe:
        workload, setup_s = set_up(args.setup_probe, args.seed)
        print(json.dumps({"setup_s": setup_s, "build_s": workload.build_s}))
        return 0

    if args.workload is None:
        return _run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    facts = machine_facts()
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    report(result)
    if result["recorder"] is not None:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        result["recorder"].dump(spans)
        print(f"# spans written to {spans}")
    if args.json:
        _write_json(args.json, {"machine": facts, "results": [_public(result)]})
    print(_last_line(result))
    return 0


def _write_json(path: str, data: dict) -> None:
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _run_all(args) -> int:
    """Every workload in a fresh process; prints them all."""
    facts = machine_facts()
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    for name in NAMES:
        part = OUT_DIR / f"part-{name}-seed{args.seed}.json"
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--json", str(part),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write("".join(
            line + "\n" for line in proc.stdout.splitlines()[:-1] if not line.startswith("# machine")
        ))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results.extend(json.loads(part.read_text(encoding="utf-8"))["results"])
        part.unlink()
    if args.json:
        _write_json(args.json, {"machine": facts, "results": results})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}.{k}": {
                "value": v, "unit": (PER_LAYER if r["trace"] else END_TO_END)[k]
            }
            for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
