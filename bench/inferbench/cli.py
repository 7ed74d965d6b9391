"""Command line of the benchmark: one run, the whole suite, compare, selfcheck."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from inferbench import batch, serve, spec, ticks
from inferbench.common import RunRequest, RunResult, Tamper
from inferbench.inputs import SCALES

WORKLOADS: Dict[str, Callable[[RunRequest], RunResult]] = {
    "batch_pregel": lambda request: batch.run("pregel", request),
    "batch_mapreduce": lambda request: batch.run("mapreduce", request),
    "delta_ticks": ticks.run,
    "serve_gateway": serve.run,
}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str = "full", tamper: Tamper = None) -> RunResult:
    """Run one workload in this process (the smoke test's entry point)."""
    return WORKLOADS[name](RunRequest(seed=seed, seconds=seconds, traced=traced,
                                      scale=SCALES[scale], tamper=tamper))


def env_fingerprint(seed: int) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {pin: os.environ.get(pin) for pin in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "executor": "serial", "git_sha": sha, "seed": seed,
    }


# --------------------------------------------------------------------------- #
# one run of one workload: the shape the benchmark contract asks for
# --------------------------------------------------------------------------- #
def _run_record(result: RunResult, metrics: Dict[str, Dict[str, Any]], seed: int,
                traced: bool) -> Dict[str, Any]:
    return {"workload": result.workload, "seed": seed, "traced": traced,
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics, "detail": result.detail}


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")


def run_one(args: argparse.Namespace) -> int:
    benchmark = spec.load()
    if args.workload not in spec.workload_names(benchmark):
        raise SystemExit(f"unknown workload {args.workload!r}; BENCHMARK.json lists "
                         f"{spec.workload_names(benchmark)}")
    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced, args.scale)
    section = "per_layer" if traced else "end_to_end"
    metrics = spec.shape_metrics(benchmark, section, result.values)
    _print_metrics(f"{result.workload} seed={args.seed} "
                   f"{'traced' if traced else 'untraced'} "
                   f"ops_attempted={result.attempted} ops_failed={result.failed}",
                   metrics)
    for key, value in result.detail.items():
        if key != "ramp":
            print(f"  [{key}] {value}")
    for row in result.detail.get("ramp", []):
        print("  [ramp] " + " ".join(
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in row.items()))
    if result.recorder is not None:
        os.makedirs(spec.RESULTS_DIR, exist_ok=True)
        path = os.path.join(spec.RESULTS_DIR, f"trace-{result.workload}.jsonl")
        result.recorder.write_jsonl(path)
        print(f"  [trace] {len(result.recorder.spans)} spans -> {os.path.relpath(path)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": env_fingerprint(args.seed),
                       **_run_record(result, metrics, args.seed, traced)}, handle)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


# --------------------------------------------------------------------------- #
# the suite: every workload, each in its own fresh process
# --------------------------------------------------------------------------- #
def _child(workload: str, seed: int, seconds: int, traced: bool, scale: str,
           out: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(spec.BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if traced else "0", "--scale", scale, "--out", out]
    completed = subprocess.run(command, check=False)
    if not os.path.exists(out):
        raise SystemExit(f"{workload} produced no result (exit {completed.returncode})")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(out)
    return record


def run_suite(seed: int, seconds: int, traced: bool, scale: str, repeat: int,
              out: Optional[str], workloads: Sequence[str]) -> Dict[str, Any]:
    os.makedirs(spec.RESULTS_DIR, exist_ok=True)
    runs: List[Dict[str, Any]] = []
    env = None
    for offset in range(repeat):
        for workload in workloads:
            for trace in ([False, True] if traced else [False]):
                scratch = os.path.join(spec.RESULTS_DIR, f".run-{os.getpid()}.json")
                record = _child(workload, seed + offset, seconds, trace, scale, scratch)
                run_env = record.pop("env")
                env = env or run_env
                runs.append(record)
    suite = {"schema": 1, "env": env, "seed": seed, "seconds": seconds,
             "scale": scale, "runs": runs}
    out = out or os.path.join(spec.RESULTS_DIR, f"result-seed{seed}-{int(time.time())}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
    print(f"wrote {os.path.relpath(out)}")
    return suite


# --------------------------------------------------------------------------- #
# compare two result files; selfcheck = compare the same code with itself
# --------------------------------------------------------------------------- #
def _untraced(suite: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in suite["runs"]
            if run["workload"] == workload and not run["traced"]]


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """Per workload x end-to-end metric: both medians, the change, the verdict.

    ``regressed`` — the second median is worse by more than the metric's
    bound; ``unresolved`` — one side's run-to-run spread is wider than the
    bound (and the runs do not separate cleanly), so neither "same" nor
    "worse" can be said.  Returns how many pairings regressed.
    """
    benchmark = spec.load()
    regressions = 0
    print(f"{'workload':<16} {'metric':<18} {'A median':>14} {'B median':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in spec.workload_names(benchmark):
        for metric in benchmark["end_to_end"]:
            a = _untraced(first, workload, metric["name"])
            b = _untraced(second, workload, metric["name"])
            if not a or not b:
                continue
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
            spread = max(spec.quartile_spread(a), spec.quartile_spread(b))
            separated = (min(b) > max(a) or max(b) < min(a))
            if spread > metric["bound"] and not separated:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {metric['name']:<18} {mid_a:>14.6g} {mid_b:>14.6g} "
                  f"{worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}")
    failed = [(run["workload"], run["failed"]) for suite in (first, second)
              for run in suite["runs"] if run["failed"]]
    if failed:
        print(f"runs with failed ops: {failed}")
    return regressions + len(failed)


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
def main(argv: Sequence[str]) -> int:
    benchmark = spec.load()
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("command", nargs="?", choices=["compare", "selfcheck"],
                        help="omit to run the benchmark")
    parser.add_argument("files", nargs="*", help="compare: two result files")
    parser.add_argument("--workload", help="run just this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"],
                        help="length of each timed window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: 1 = the traced, per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also run every workload traced")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--repeat", type=int,
                        help="run the suite this many times, on seeds seed, seed+1, "
                             "... (default 1; selfcheck 3: one run's p90 is too "
                             "noisy to judge against a bound)")
    parser.add_argument("--out", help="write the full result (JSON) here")
    args = parser.parse_args(argv)

    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return 1 if compare(_load(args.files[0]), _load(args.files[1])) else 0
    names = spec.workload_names(benchmark)
    if args.command == "selfcheck":
        suites = [run_suite(args.seed, args.seconds, False, args.scale,
                            args.repeat or 3, None, names) for _ in range(2)]
        return 1 if compare(*suites) else 0
    if args.workload:
        return run_one(args)
    suite = run_suite(args.seed, args.seconds, args.traced, args.scale,
                      args.repeat or 1, args.out, names)
    return 0 if all(run["correct"] for run in suite["runs"]) else 1
