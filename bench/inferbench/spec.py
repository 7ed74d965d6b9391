"""``BENCHMARK.json`` is the one list of metric names, units and bounds.

The harness reads it instead of repeating it: a run reports exactly the
metrics the file declares, with the units it declares, and ``compare`` reads
the regression bounds from it.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Callable, Dict, Iterable, List, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def load() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]]


def shape_metrics(spec: Dict[str, Any], section: str,
                  values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``values`` in the contract's ``{"name": {"value", "unit"}}`` shape.

    Every metric the section declares must have a value and nothing else may
    be reported, so a typo in a metric name fails the run instead of quietly
    dropping a number.  A per-layer metric of a layer the workload never
    enters reads 0 (see bench/README.md).
    """
    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json[{section}]: {unknown}")
    if section == "end_to_end":
        missing = sorted(set(declared) - set(values))
        if missing:
            raise KeyError(f"end-to-end metrics without a value: {missing}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()}


# --------------------------------------------------------------------------- #
# small statistics helpers shared by the workloads and ``compare``
# --------------------------------------------------------------------------- #
def percentile(samples: Iterable[float], q: float) -> float:
    data = np.asarray(list(samples), dtype=np.float64)
    return float(np.percentile(data, q)) if data.size else 0.0


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50.0)


#: A window of ``quietest`` is one sixteenth of the run (1.5 s of a 24 s run),
#: and at least ten consecutive ops, so that its p90 has a sample beyond it.
WINDOWS_PER_RUN = 16
MIN_WINDOW_OPS = 10


def quietest(samples: Sequence[float], statistic: Callable[[np.ndarray], float],
             best: Callable[[Iterable[float]], float] = min) -> float:
    """``statistic`` of the quietest window of consecutive ops of the run.

    The benchmark runs on a few cores of a shared host.  Other guests slow
    every op by 5-25% for seconds to minutes at a time (one 600 s trace of
    ``batch_pregel``: 3 s window medians from 252 to 325 ms on identical
    work), and that noise only ever *adds* time.  A statistic over the whole
    run therefore reports how busy the host was: the plain p50 of ten 20 s
    runs spread 7-27%, the plain p90 13-50%.  The program's own latency
    distribution is what the host lets through when it is quiet, so each
    statistic is taken over every window of consecutive ops (stride one op)
    and the best window is reported.  A tail the *program* produces is in
    every window, the quietest included, and still shows; a stall of the box
    is in some windows and does not.  With fewer than twenty ops
    (``batch_mapreduce``) a window is half the run.
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if not data.size:
        return 0.0
    width = max(1, min(max(MIN_WINDOW_OPS, data.size // WINDOWS_PER_RUN), data.size // 2))
    return float(best(statistic(data[start:start + width])
                      for start in range(data.size - width + 1)))


def level(samples: Sequence[float]) -> float:
    """Mean of ``samples``; exactly the common value when all are equal.

    The simulated-cluster costs of a ``batch_*`` run are the same exact count
    on every op — returning that count (not a re-rounded mean) keeps them
    comparable with ``==`` between two runs of one seed.
    """
    if not samples:
        return 0.0
    first = samples[0]
    if all(sample == first for sample in samples):
        return float(first)
    return float(statistics.fmean(samples))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are judged by."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
